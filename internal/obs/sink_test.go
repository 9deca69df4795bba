package obs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sgxpreload/internal/mem"
)

// sinkEvents builds enough varied events to force several buffer
// flushes (>64 KiB of output). Field
// magnitudes follow what the engine actually emits — T is a growing
// cycle count, pages fit the EPC, v1 is a latency in cycles — so the
// write benchmarks sharing this helper measure representative lines.
func sinkEvents(n int) []Event {
	rng := rand.New(rand.NewSource(99))
	kinds := Kinds()
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{
			T:     uint64(i) * 1237,
			Kind:  kinds[rng.Intn(len(kinds))],
			Page:  mem.PageID(rng.Intn(4096)),
			Batch: uint64(rng.Intn(8)),
			V1:    uint64(rng.Intn(100_000)),
			V2:    uint64(rng.Intn(64)),
		}
		if rng.Intn(16) == 0 {
			out[i].Page = mem.NoPage
		}
	}
	return out
}

// TestStreamSinkMatchesWrite is the sink's core contract: streaming a
// timeline event by event produces exactly the bytes the independent
// fmt reference writers produce, in both formats, across many buffer
// flushes.
func TestStreamSinkMatchesWrite(t *testing.T) {
	events := sinkEvents(5000)
	for _, tc := range []struct {
		format Format
		write  func(io.Writer, []Event) error
	}{
		{FormatJSONL, writeJSONLFmt},
		{FormatCSV, writeCSVFmt},
	} {
		var want bytes.Buffer
		if err := tc.write(&want, events); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		s := NewStreamSink(&got, tc.format)
		for _, e := range events {
			s.Emit(e)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("format %d: sink output (%d bytes) diverges from the fmt reference (%d bytes)",
				tc.format, got.Len(), want.Len())
		}
		if s.Events() != len(events) {
			t.Errorf("format %d: Events() = %d, want %d", tc.format, s.Events(), len(events))
		}
	}
}

// TestStreamSinkEmptyTimeline: a sink closed without any Emit still
// writes the schema preamble, so the file is a valid empty trace.
func TestStreamSinkEmptyTimeline(t *testing.T) {
	var got bytes.Buffer
	s := NewStreamSink(&got, FormatJSONL)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeJSONLFmt(&want, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("empty sink wrote %q, want %q", got.Bytes(), want.Bytes())
	}
}

func TestStreamSinkCloseIdempotent(t *testing.T) {
	s := NewStreamSink(&bytes.Buffer{}, FormatJSONL)
	s.Emit(Event{T: 1, Kind: KindFaultBegin})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// failOnce fails the first write made once n bytes have been
// accepted, and accepts every write before and after it.
type failOnce struct {
	n      int
	err    error
	failed bool
	writes int // writes after the failure
}

func (w *failOnce) Write(p []byte) (int, error) {
	switch {
	case w.failed:
		w.writes++
	case w.n <= 0:
		w.failed = true
		return 0, w.err
	default:
		w.n -= len(p)
	}
	return len(p), nil
}

// TestStreamSinkWriteErrorLatched: the engine-facing Emit never fails;
// the first underlying write error is latched, later output is
// discarded rather than written past the hole, and Close surfaces the
// error even though the writer would accept later writes.
func TestStreamSinkWriteErrorLatched(t *testing.T) {
	wantErr := errors.New("disk full")
	w := &failOnce{n: 100 << 10, err: wantErr}
	s := NewStreamSink(w, FormatJSONL)
	for _, e := range sinkEvents(20_000) { // ~1.5 MiB, fails partway
		s.Emit(e)
	}
	if err := s.Close(); !errors.Is(err, wantErr) {
		t.Errorf("Close = %v, want %v", err, wantErr)
	}
	if !w.failed || w.writes != 0 {
		t.Errorf("failed = %v, %d writes after the failure; want true, 0", w.failed, w.writes)
	}
}

// TestStreamSinkNoGoroutine: the sink writes on the emitting goroutine,
// so creating one, streaming several buffers through it and closing it
// never raises the process's goroutine count.
func TestStreamSinkNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewStreamSink(io.Discard, FormatJSONL)
	for _, e := range sinkEvents(5000) {
		s.Emit(e)
	}
	during := runtime.NumGoroutine()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	if during > before || after > before {
		t.Errorf("goroutines: %d before the sink, %d while streaming, %d after Close", before, during, after)
	}
}

// TestStreamSinkEmitAfterClosePanics: a closed sink has written its
// tail, so a later event must fail loudly instead of vanishing.
func TestStreamSinkEmitAfterClosePanics(t *testing.T) {
	s := NewStreamSink(io.Discard, FormatJSONL)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Emit after Close did not panic")
		}
	}()
	s.Emit(Event{T: 1, Kind: KindFaultBegin})
}

// TestStreamSinkFile: the file constructor picks the format from the
// extension, owns the file, and writes the fmt reference's bytes.
func TestStreamSinkFile(t *testing.T) {
	events := sinkEvents(300)
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		write func(io.Writer, []Event) error
	}{
		{"trace.jsonl", writeJSONLFmt},
		{"trace.csv", writeCSVFmt},
	} {
		path := filepath.Join(dir, tc.name)
		s, err := NewStreamSinkFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			s.Emit(e)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := tc.write(&want, events); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: file diverges from the fmt reference", tc.name)
		}
	}
}

func TestFormatForPath(t *testing.T) {
	if FormatForPath("run.csv") != FormatCSV {
		t.Error("run.csv should map to FormatCSV")
	}
	if FormatForPath("run.jsonl") != FormatJSONL {
		t.Error("run.jsonl should map to FormatJSONL")
	}
	if FormatForPath("run") != FormatJSONL {
		t.Error("extensionless path should default to FormatJSONL")
	}
}
