package replay

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"sgxpreload/internal/obs"
)

// readBoth reads input through a seekable reader, which sizes the event
// slice from a line count, and through one that hides Seek, which grows
// it; both must give the same events and the same error.
func readBoth(t *testing.T, read func(io.Reader) ([]obs.Event, error), input string) ([]obs.Event, error) {
	t.Helper()
	events, err := read(bytes.NewReader([]byte(input)))
	grown, grownErr := read(noSeek{strings.NewReader(input)})
	sameRead(t, "sized vs grown", events, err, grown, grownErr)
	return events, err
}

// checkEventLines fails t unless every non-blank line of an accepted
// input after its headers equals the matching event line of the
// re-serialized trace out byte for byte. Lines split as the reader
// splits them: at "\n", with one "\r" before it part of the line end.
func checkEventLines(t *testing.T, input, out string, headers int) {
	t.Helper()
	var in []string
	for _, line := range strings.Split(input, "\n")[headers:] {
		if line = strings.TrimSuffix(line, "\r"); line != "" {
			in = append(in, line)
		}
	}
	want := strings.Split(strings.TrimSuffix(out, "\n"), "\n")[headers:]
	if !slices.Equal(in, want) {
		t.Fatalf("accepted event lines differ from their re-serialization:\n%q\nwant\n%q", in, want)
	}
}

// FuzzReadJSONL drives the parser with arbitrary bytes — truncated
// traces, corrupt lines, hostile headers. The invariants: never panic,
// a sized read agrees with a grown one, and any input the parser accepts
// re-serializes to its own event lines, byte for byte, and re-parses to
// the same timeline.
func FuzzReadJSONL(f *testing.F) {
	var valid strings.Builder
	if err := obs.WriteJSONL(&valid, allKindEvents()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add(valid.String()[:len(valid.String())/2])                   // truncated mid-line
	f.Add(strings.ReplaceAll(valid.String(), "\n", "\n\n"))         // blank lines
	f.Add(strings.ReplaceAll(valid.String(), "\n", "\r\n"))         // CRLF line ends
	f.Add(obs.TraceHeaderJSONL() + "\n")                            // header only
	f.Add(obs.TraceHeaderJSONL())                                   // header without newline
	f.Add("")                                                       // empty
	f.Add(`{"schema":"sgxpreload-trace","version":2}`)              // future version
	f.Add(`{"t":1,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`) // headerless
	f.Add(obs.TraceHeaderJSONL() + "\n" + `{"t":1,"kind":"nope","page":0,"batch":0,"v1":0,"v2":0}`)
	f.Add(obs.TraceHeaderJSONL() + "\n" + `{"t":-1,"kind":"scan","page":-2,"batch":0,"v1":0,"v2":0}`)
	f.Add(obs.TraceHeaderJSONL() + "\n{\"t\":1,")

	f.Fuzz(func(t *testing.T, input string) {
		events, err := readBoth(t, ReadJSONL, input)
		if err != nil {
			return
		}
		var out strings.Builder
		if err := obs.WriteJSONL(&out, events); err != nil {
			t.Fatalf("re-serialize of accepted input failed: %v", err)
		}
		checkEventLines(t, input, out.String(), 1)
		again, err := ReadJSONL(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("re-parse of re-serialized input failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-parse changed event count: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if events[i] != again[i] {
				t.Fatalf("event %d changed across round trip: %+v -> %+v", i, events[i], again[i])
			}
		}
		// Canonical serialization is a fixpoint: once written by
		// obs.WriteJSONL, a timeline re-parses and re-serializes to the
		// same bytes.
		var out2 strings.Builder
		if err := obs.WriteJSONL(&out2, again); err != nil {
			t.Fatal(err)
		}
		if out.String() != out2.String() {
			t.Fatal("canonical JSONL is not a serialization fixpoint")
		}
	})
}

// FuzzParseJSONLLine is the per-line differential fuzzer: for any
// bytes, the strict JSONL decoder keeps its relation to the
// encoding/json reference (lineCodec.mismatch).
func FuzzParseJSONLLine(f *testing.F) {
	for _, line := range parserCorpusJSONL() {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if msg := jsonlCodec.mismatch(line); msg != "" {
			t.Fatal(msg)
		}
	})
}

// FuzzParseCSVLine is the CSV counterpart against the strconv reference.
func FuzzParseCSVLine(f *testing.F) {
	for _, line := range parserCorpusCSV() {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if msg := csvCodec.mismatch(line); msg != "" {
			t.Fatal(msg)
		}
	})
}

// FuzzReadCSV is the same harness over the CSV reader.
func FuzzReadCSV(f *testing.F) {
	var valid strings.Builder
	if err := obs.WriteCSV(&valid, allKindEvents()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add(valid.String()[:len(valid.String())/3])
	f.Add(strings.ReplaceAll(valid.String(), "\n", "\n\n"))
	f.Add(strings.TrimSuffix(valid.String(), "\n"))
	f.Add(obs.TraceHeaderCSV() + "\n")
	f.Add(obs.TraceHeaderCSV() + "\nt,kind,page,batch,v1,v2\n")
	f.Add("")
	f.Add("t,kind,page,batch,v1,v2\n1,scan,0,0,0,0\n")
	f.Add(obs.TraceHeaderCSV() + "\nt,kind,page,batch,v1,v2\n1,scan,0,0,0\n")

	f.Fuzz(func(t *testing.T, input string) {
		events, err := readBoth(t, ReadCSV, input)
		if err != nil {
			return
		}
		var out strings.Builder
		if err := obs.WriteCSV(&out, events); err != nil {
			t.Fatalf("re-serialize of accepted input failed: %v", err)
		}
		checkEventLines(t, input, out.String(), 2)
		again, err := ReadCSV(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("re-parse of re-serialized input failed: %v", err)
		}
		var out2 strings.Builder
		if err := obs.WriteCSV(&out2, again); err != nil {
			t.Fatal(err)
		}
		if out.String() != out2.String() {
			t.Fatal("canonical CSV is not a serialization fixpoint")
		}
	})
}
