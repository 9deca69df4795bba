package obs

import (
	"strings"
	"testing"

	"sgxpreload/internal/mem"
)

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder()
	if r.Len() != 0 {
		t.Fatalf("new recorder has %d events", r.Len())
	}
	e1 := Event{T: 10, Kind: KindFaultBegin, Page: 42}
	e2 := Event{T: 20, Kind: KindFaultEnd, Page: 42, V1: 10, V2: FaultDemand}
	r.Emit(e1)
	r.Emit(e2)
	got := r.Events()
	if len(got) != 2 || got[0] != e1 || got[1] != e2 {
		t.Fatalf("Events() = %+v", got)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("recorder holds %d events after Reset", r.Len())
	}
}

func TestWriteJSONL(t *testing.T) {
	r := NewRecorder()
	r.Emit(Event{T: 5, Kind: KindLoadStart, Page: 7, Batch: 2, V1: 105, V2: 1})
	r.Emit(Event{T: 9, Kind: KindEvict, Page: mem.NoPage, V1: 1})
	var b strings.Builder
	if err := WriteJSONL(&b, r.Events()); err != nil {
		t.Fatal(err)
	}
	want := `{"schema":"sgxpreload-trace","version":1,"fields":["t","kind","page","batch","v1","v2"]}
{"t":5,"kind":"load_start","page":7,"batch":2,"v1":105,"v2":1}
{"t":9,"kind":"evict","page":-1,"batch":0,"v1":1,"v2":0}
`
	if b.String() != want {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Emit(Event{T: 5, Kind: KindPreloadQueue, Page: 7, Batch: 2})
	var b strings.Builder
	if err := WriteCSV(&b, r.Events()); err != nil {
		t.Fatal(err)
	}
	want := "# sgxpreload-trace version=1\nt,kind,page,batch,v1,v2\n5,preload_queue,7,2,0,0\n"
	if b.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestExportsDeterministic(t *testing.T) {
	r := NewRecorder()
	for i := uint64(0); i < 100; i++ {
		r.Emit(Event{T: i, Kind: Kind(1 + i%uint64(kindCount-1)), Page: mem.PageID(i * 3)})
	}
	var a, b strings.Builder
	if err := WriteJSONL(&a, r.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, r.Events()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two JSONL exports of one timeline differ")
	}
}

func TestClockedStampsZeroTimestamps(t *testing.T) {
	r := NewRecorder()
	var now uint64 = 77
	h := Clocked(r, &now)
	h.Emit(Event{Kind: KindStreamStart, Page: 1})      // zero T: stamped
	h.Emit(Event{T: 33, Kind: KindStreamHit, Page: 2}) // nonzero T: kept
	now = 99
	h.Emit(Event{Kind: KindStreamEnd})
	ev := r.Events()
	if ev[0].T != 77 || ev[1].T != 33 || ev[2].T != 99 {
		t.Fatalf("timestamps = %d, %d, %d; want 77, 33, 99", ev[0].T, ev[1].T, ev[2].T)
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("Tee of no live hooks != nil")
	}
	r1, r2 := NewRecorder(), NewRecorder()
	if got := Tee(nil, r1); got != Hook(r1) {
		t.Fatal("Tee of one live hook did not return it directly")
	}
	h := Tee(r1, nil, r2)
	h.Emit(Event{T: 1, Kind: KindScan})
	if r1.Len() != 1 || r2.Len() != 1 {
		t.Fatalf("fan-out reached %d/%d recorders", r1.Len(), r2.Len())
	}
}

func TestKindNames(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kinds() {
		name := k.String()
		if name == "" || name == "unknown" || name == "none" {
			t.Errorf("kind %d has bad wire name %q", k, name)
		}
		if seen[name] {
			t.Errorf("duplicate wire name %q", name)
		}
		seen[name] = true
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind did not stringify as unknown")
	}
	if len(Kinds()) != int(kindCount)-1 {
		t.Errorf("Kinds() returned %d kinds, want %d", len(Kinds()), kindCount-1)
	}
}

// TestKindByName: every emitted kind resolves from its wire name, and
// names that are never emitted miss.
func TestKindByName(t *testing.T) {
	for _, k := range Kinds() {
		got, ok := KindByWire([]byte(k.String()))
		if !ok || got != k {
			t.Errorf("KindByWire(%q) = %v, %v; want %v, true", k.String(), got, ok, k)
		}
	}
	for _, bad := range []string{"", "none", "unknown", "fault"} {
		if _, ok := KindByWire([]byte(bad)); ok {
			t.Errorf("KindByWire(%q) resolved, want miss", bad)
		}
	}
}

// refKindByName is the linear-scan reference for the bucketed lookup.
func refKindByName(name string) (Kind, bool) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, true
		}
	}
	return KindNone, false
}

// checkKindLookup asserts that KindByWire and the reference agree on
// name.
func checkKindLookup(t *testing.T, name []byte) {
	t.Helper()
	wk, wok := KindByWire(name)
	rk, rok := refKindByName(string(name))
	if wk != rk || wok != rok {
		t.Errorf("%q: KindByWire = %v, %v; reference = %v, %v", name, wk, wok, rk, rok)
	}
}

// kindLookupCorpus is every wire name, each of its prefixes and
// one-byte edits, and names that are not emitted.
func kindLookupCorpus() []string {
	corpus := []string{"", "none", "unknown", "fault", "scan ", " scan", "SCAN", "stream_", "quota_rebalance_"}
	for _, k := range Kinds() {
		name := k.String()
		for i := range name {
			corpus = append(corpus, name[:i], name[:i]+"x"+name[i+1:])
		}
		corpus = append(corpus, name, name+"_")
	}
	return corpus
}

func TestKindByWire(t *testing.T) {
	for _, name := range kindLookupCorpus() {
		checkKindLookup(t, []byte(name))
	}
	wire := []byte("preload_abort")
	if n := testing.AllocsPerRun(100, func() { KindByWire(wire) }); n != 0 {
		t.Errorf("KindByWire allocates %.0f times per call", n)
	}
}

func FuzzKindByWire(f *testing.F) {
	for _, name := range kindLookupCorpus() {
		f.Add([]byte(name))
	}
	f.Fuzz(func(t *testing.T, name []byte) { checkKindLookup(t, name) })
}
