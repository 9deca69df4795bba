package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sgxpreload/internal/mem"
)

// fmtJSONLLine is the original fmt.Fprintf JSONL line writer, kept as
// the differential reference: AppendJSONL must reproduce it byte for
// byte for every event, since the trace format is a pinned contract.
func fmtJSONLLine(e Event) string {
	return fmt.Sprintf(`{"t":%d,"kind":%q,"page":%d,"batch":%d,"v1":%d,"v2":%d}`+"\n",
		e.T, e.Kind.String(), pageField(e.Page), e.Batch, e.V1, e.V2)
}

// fmtCSVLine is the original fmt.Fprintf CSV row writer.
func fmtCSVLine(e Event) string {
	return fmt.Sprintf("%d,%s,%d,%d,%d,%d\n",
		e.T, e.Kind.String(), pageField(e.Page), e.Batch, e.V1, e.V2)
}

// encoderCornerEvents returns the events most likely to expose encoder
// divergence: every defined kind, the undefined kinds the old writer
// rendered via Kind.String() fallbacks, the NoPage sentinel, and
// saturated 64-bit fields.
func encoderCornerEvents() []Event {
	events := []Event{
		{},
		{T: 1, Kind: KindNone, Page: 0, Batch: 0, V1: 0, V2: 0},
		{T: 42, Kind: Kind(200), Page: 7, Batch: 1, V1: 2, V2: 3},
		{T: 42, Kind: kindCount, Page: 7, Batch: 1, V1: 2, V2: 3},
		{T: math.MaxUint64, Kind: KindFaultBegin, Page: mem.NoPage,
			Batch: math.MaxUint64, V1: math.MaxUint64, V2: math.MaxUint64},
		{T: 9, Kind: KindEvict, Page: mem.PageID(math.MaxInt64), Batch: 8, V1: 7, V2: 6},
		{T: 10, Kind: KindEvict, Page: mem.PageID(math.MaxInt64) + 1},
	}
	for _, k := range Kinds() {
		events = append(events, Event{T: uint64(k) * 1000, Kind: k,
			Page: mem.PageID(k), Batch: 2, V1: 11, V2: 13})
	}
	return events
}

func TestAppendMatchesFmtReference(t *testing.T) {
	for _, e := range encoderCornerEvents() {
		if got, want := string(AppendJSONL(nil, e)), fmtJSONLLine(e); got != want {
			t.Errorf("AppendJSONL(%+v):\n got  %q\n want %q", e, got, want)
		}
		if got, want := string(AppendCSV(nil, e)), fmtCSVLine(e); got != want {
			t.Errorf("AppendCSV(%+v):\n got  %q\n want %q", e, got, want)
		}
	}
}

func TestAppendMatchesFmtReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		e := Event{
			T:     rng.Uint64() >> uint(rng.Intn(64)),
			Kind:  Kind(rng.Intn(int(kindCount) + 2)),
			Page:  mem.PageID(rng.Uint64() >> uint(rng.Intn(64))),
			Batch: rng.Uint64() >> uint(rng.Intn(64)),
			V1:    rng.Uint64() >> uint(rng.Intn(64)),
			V2:    rng.Uint64() >> uint(rng.Intn(64)),
		}
		if rng.Intn(8) == 0 {
			e.Page = mem.NoPage
		}
		if got, want := string(AppendJSONL(nil, e)), fmtJSONLLine(e); got != want {
			t.Fatalf("AppendJSONL(%+v):\n got  %q\n want %q", e, got, want)
		}
		if got, want := string(AppendCSV(nil, e)), fmtCSVLine(e); got != want {
			t.Fatalf("AppendCSV(%+v):\n got  %q\n want %q", e, got, want)
		}
	}
}

// TestWriteMatchesFmtReference pins the full exported documents —
// headers plus every line — against a straight fmt re-implementation of
// the original writers.
func TestWriteMatchesFmtReference(t *testing.T) {
	events := encoderCornerEvents()

	var wantJSONL bytes.Buffer
	fmt.Fprintln(&wantJSONL, TraceHeaderJSONL())
	for _, e := range events {
		wantJSONL.WriteString(fmtJSONLLine(e))
	}
	var gotJSONL bytes.Buffer
	if err := WriteJSONL(&gotJSONL, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSONL.Bytes(), wantJSONL.Bytes()) {
		t.Errorf("WriteJSONL diverges from fmt reference")
	}

	var wantCSV bytes.Buffer
	fmt.Fprintln(&wantCSV, TraceHeaderCSV())
	fmt.Fprintln(&wantCSV, TraceColumnsCSV)
	for _, e := range events {
		wantCSV.WriteString(fmtCSVLine(e))
	}
	var gotCSV bytes.Buffer
	if err := WriteCSV(&gotCSV, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Errorf("WriteCSV diverges from fmt reference")
	}
}

// TestWriteEventsFlushBoundary forces the internal buffer to flush
// mid-document and checks nothing is lost or duplicated around the
// boundary.
func TestWriteEventsFlushBoundary(t *testing.T) {
	events := make([]Event, 20_000) // ~1 MiB of JSONL, many flushes
	for i := range events {
		events[i] = Event{T: uint64(i), Kind: KindFaultBegin, Page: mem.PageID(i % 512), V1: uint64(i) * 3}
	}
	var got bytes.Buffer
	if err := WriteJSONL(&got, events); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	fmt.Fprintln(&want, TraceHeaderJSONL())
	for _, e := range events {
		want.WriteString(fmtJSONLLine(e))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("flushing writer diverges: got %d bytes, want %d", got.Len(), want.Len())
	}
}

// TestDecodeInvertsAppend: each decoder gives back the event its
// encoder rendered, for every event an engine can emit, and rejects the
// lines rendered for the kinds and pages an engine never emits.
func TestDecodeInvertsAppend(t *testing.T) {
	for _, e := range encoderCornerEvents() {
		emitted := e.Kind > KindNone && e.Kind < kindCount && (e.Page == mem.NoPage || e.Page <= math.MaxInt64)
		for _, c := range []struct {
			encode func([]byte, Event) []byte
			decode func([]byte) (Event, error)
		}{{AppendJSONL, DecodeJSONL}, {AppendCSV, DecodeCSV}} {
			line := bytes.TrimSuffix(c.encode(nil, e), []byte("\n"))
			got, err := c.decode(line)
			switch {
			case emitted && (err != nil || got != e):
				t.Errorf("%s: decoded (%+v, %v), want %+v", line, got, err, e)
			case !emitted && err == nil:
				t.Errorf("%s: decoded %+v, want an error", line, got)
			}
		}
	}
}
