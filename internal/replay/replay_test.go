package replay

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// allKindEvents builds a timeline containing every emitted kind with
// varied field values, including the NoPage sentinel and values past
// int64 range, so the round-trip tests cover the whole wire surface.
func allKindEvents() []obs.Event {
	var events []obs.Event
	for i, k := range obs.Kinds() {
		e := obs.Event{
			T:     uint64(i) * 1_000_003,
			Kind:  k,
			Page:  mem.PageID(i * 7),
			Batch: uint64(i),
			V1:    uint64(i) * 13,
			V2:    uint64(i % 4),
		}
		events = append(events, e)
	}
	// The writer's special cases: a background write-back burst (NoPage)
	// and a max-range value.
	events = append(events,
		obs.Event{T: 42, Kind: obs.KindEvict, Page: mem.NoPage, V1: 1},
		obs.Event{T: 1<<64 - 1, Kind: obs.KindScan, V1: 1<<64 - 1, V2: 7},
		obs.Event{T: 7, Kind: obs.KindScan, Page: mem.PageID(1<<63 - 1), Batch: 1<<64 - 1},
	)
	return events
}

// TestJSONLRoundTripAllKinds pins the schema contract: for every kind,
// WriteJSONL → ReadJSONL → WriteJSONL is byte-identical.
func TestJSONLRoundTripAllKinds(t *testing.T) {
	events := allKindEvents()
	var first strings.Builder
	if err := obs.WriteJSONL(&first, events); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadJSONL(strings.NewReader(first.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(events) {
		t.Fatalf("parsed %d events, wrote %d", len(parsed), len(events))
	}
	for i := range events {
		if parsed[i] != events[i] {
			t.Fatalf("event %d: parsed %+v, wrote %+v", i, parsed[i], events[i])
		}
	}
	var second strings.Builder
	if err := obs.WriteJSONL(&second, parsed); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("re-serialized JSONL differs from the original bytes")
	}
}

// TestCSVRoundTripAllKinds is the same property over the CSV format.
func TestCSVRoundTripAllKinds(t *testing.T) {
	events := allKindEvents()
	var first strings.Builder
	if err := obs.WriteCSV(&first, events); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadCSV(strings.NewReader(first.String()))
	if err != nil {
		t.Fatal(err)
	}
	var second strings.Builder
	if err := obs.WriteCSV(&second, parsed); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("re-serialized CSV differs from the original bytes")
	}
}

func TestJSONLHeaderEnforced(t *testing.T) {
	eventLine := `{"t":1,"kind":"fault_begin","page":2,"batch":0,"v1":0,"v2":0}` + "\n"
	tests := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"headerless (pre-versioning trace)", eventLine},
		{"wrong schema", `{"schema":"other-trace","version":1}` + "\n" + eventLine},
		{"future version", `{"schema":"sgxpreload-trace","version":2}` + "\n" + eventLine},
		{"garbage header", "not json at all\n" + eventLine},
	}
	for _, tc := range tests {
		if _, err := ReadJSONL(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: parse succeeded, want header error", tc.name)
		}
	}
}

func TestCSVHeaderEnforced(t *testing.T) {
	row := "1,fault_begin,2,0,0,0\n"
	tests := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"headerless (pre-versioning trace)", "t,kind,page,batch,v1,v2\n" + row},
		{"wrong version", "# sgxpreload-trace version=9\nt,kind,page,batch,v1,v2\n" + row},
		{"missing column header", obs.TraceHeaderCSV() + "\n" + row},
	}
	for _, tc := range tests {
		if _, err := ReadCSV(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: parse succeeded, want header error", tc.name)
		}
	}
}

func TestJSONLRejectsCorruptLines(t *testing.T) {
	head := obs.TraceHeaderJSONL() + "\n"
	tests := []struct {
		name  string
		lines string
	}{
		{"truncated json", `{"t":1,"kind":"fa`},
		{"unknown kind", `{"t":1,"kind":"warp_drive","page":0,"batch":0,"v1":0,"v2":0}`},
		{"never-emitted kind", `{"t":1,"kind":"none","page":0,"batch":0,"v1":0,"v2":0}`},
		{"negative page below sentinel", `{"t":1,"kind":"scan","page":-2,"batch":0,"v1":0,"v2":0}`},
		{"float field", `{"t":1.5,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`},
		{"negative counter", `{"t":1,"kind":"scan","page":0,"batch":-3,"v1":0,"v2":0}`},
		{"not an object", `[1,2,3]`},
		{"reordered fields", `{"kind":"scan","t":1,"page":0,"batch":0,"v1":0,"v2":0}`},
		{"whitespace", `{"t": 1,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`},
		{"leading zero", `{"t":01,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`},
		{"sign prefix", `{"t":+1,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`},
	}
	for _, tc := range tests {
		_, err := ReadJSONL(strings.NewReader(head + tc.lines + "\n"))
		if err == nil {
			t.Errorf("%s: parse succeeded, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: error lacks line number: %v", tc.name, err)
		}
	}
}

func TestCSVRejectsCorruptRows(t *testing.T) {
	head := obs.TraceHeaderCSV() + "\nt,kind,page,batch,v1,v2\n"
	tests := []struct {
		name string
		row  string
	}{
		{"short row", "1,scan,0"},
		{"long row", "1,scan,0,0,0,0,0"},
		{"unknown kind", "1,warp_drive,0,0,0,0"},
		{"bad number", "one,scan,0,0,0,0"},
		{"negative page below sentinel", "1,scan,-2,0,0,0"},
		{"leading zero", "01,scan,0,0,0,0"},
		{"sign prefix", "+1,scan,0,0,0,0"},
		{"sentinel with a leading zero", "1,scan,-01,0,0,0"},
	}
	for _, tc := range tests {
		_, err := ReadCSV(strings.NewReader(head + tc.row + "\n"))
		if err == nil {
			t.Errorf("%s: parse succeeded, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: error lacks line number: %v", tc.name, err)
		}
	}
}

func TestReadFileDispatch(t *testing.T) {
	dir := t.TempDir()
	events := allKindEvents()

	writeWith := func(name string, write func(*strings.Builder) error) string {
		var b strings.Builder
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	jsonl := writeWith("a.jsonl", func(b *strings.Builder) error { return obs.WriteJSONL(b, events) })
	csv := writeWith("a.csv", func(b *strings.Builder) error { return obs.WriteCSV(b, events) })

	for _, path := range []string{jsonl, csv} {
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(got) != len(events) {
			t.Fatalf("%s: %d events, want %d", path, len(got), len(events))
		}
	}
	if _, err := ReadFile(dir + "/missing.jsonl"); err == nil {
		t.Error("ReadFile of a missing path succeeded")
	}
}
