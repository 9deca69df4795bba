package spec

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/workload"
)

// loadFixture parses the committed two-cohort fixture spec.
func loadFixture(t *testing.T) *Spec {
	t.Helper()
	s, err := Load("testdata/fixture.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// small flat spec used by focused tests.
func flatSpec() *Spec {
	return &Spec{
		Name:          "flat",
		Seed:          7,
		HorizonCycles: 5_500_000,
		Cohorts: []Cohort{{
			Name:    "c",
			Arrival: ArrivalProcess{Process: Fixed, MeanIntervalCycles: 1_000_000},
			Mix:     []MixEntry{{Workload: "exchange2", Weight: 1}},
		}},
	}
}

func TestFixedProcessTimes(t *testing.T) {
	arrivals, m, err := Compile(flatSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.CloseArrivals(arrivals)
	want := []uint64{1_000_000, 2_000_000, 3_000_000, 4_000_000, 5_000_000}
	if len(m.Launches) != len(want) {
		t.Fatalf("got %d launches, want %d:\n%s", len(m.Launches), len(want), m)
	}
	for i, l := range m.Launches {
		if l.At != want[i] {
			t.Errorf("launch %d at %d, want %d", i, l.At, want[i])
		}
		if l.Name != "c.exchange2/"+string(rune('0'+i)) {
			t.Errorf("launch %d named %q", i, l.Name)
		}
	}
}

// TestCompileDeterministic is the tentpole contract: two compilations
// of one spec agree on every launch and on every access of every
// stream.
func TestCompileDeterministic(t *testing.T) {
	s := loadFixture(t)
	a1, m1, err := Compile(s, Options{Scheme: sim.DFPStop})
	if err != nil {
		t.Fatal(err)
	}
	a2, m2, err := Compile(s, Options{Scheme: sim.DFPStop})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.Launches, m2.Launches) {
		t.Fatalf("manifests diverge:\n%s\nvs\n%s", m1, m2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("arrival counts diverge: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].At != a2[i].At || a1[i].Enclave.Name != a2[i].Enclave.Name ||
			a1[i].Enclave.Pages != a2[i].Enclave.Pages {
			t.Fatalf("arrival %d headers diverge", i)
		}
		t1 := mem.Collect(a1[i].Enclave.Stream)
		t2 := mem.Collect(a2[i].Enclave.Stream)
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("arrival %d (%s): streams diverge (%d vs %d accesses)",
				i, a1[i].Enclave.Name, len(t1), len(t2))
		}
	}
}

// TestJSONRoundTrip re-marshals a parsed spec and checks the copy
// compiles to the identical manifest.
func TestJSONRoundTrip(t *testing.T) {
	s := loadFixture(t)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(data)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	a1, m1, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fleet.CloseArrivals(a1)
	a2, m2, err := Compile(s2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fleet.CloseArrivals(a2)
	if !reflect.DeepEqual(m1.Launches, m2.Launches) {
		t.Fatalf("round-tripped spec compiles differently:\n%s\nvs\n%s", m1, m2)
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","seed":1,"horizon_cycles":10,"cohorts":[],"typo_knob":1}`))
	if err == nil || !strings.Contains(err.Error(), "typo_knob") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	valid := func() *Spec { return flatSpec() }
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "name"},
		{"no horizon", func(s *Spec) { s.HorizonCycles = 0 }, "horizon"},
		{"no cohorts", func(s *Spec) { s.Cohorts = nil }, "cohort"},
		{"dup cohort", func(s *Spec) { s.Cohorts = append(s.Cohorts, s.Cohorts[0]) }, "duplicate"},
		{"bad process", func(s *Spec) { s.Cohorts[0].Arrival.Process = "zeta" }, "zeta"},
		{"zero interval", func(s *Spec) { s.Cohorts[0].Arrival.MeanIntervalCycles = 0 }, "mean_interval"},
		{"negative cv", func(s *Spec) {
			s.Cohorts[0].Arrival.Process = Gamma
			s.Cohorts[0].Arrival.CV = -1
		}, "cv"},
		{"negative shape", func(s *Spec) {
			s.Cohorts[0].Arrival.Process = Weibull
			s.Cohorts[0].Arrival.Shape = -1
		}, "shape"},
		{"empty mix", func(s *Spec) { s.Cohorts[0].Mix = nil }, "mix"},
		{"unknown workload", func(s *Spec) { s.Cohorts[0].Mix[0].Workload = "nope" }, "nope"},
		{"zero weight", func(s *Spec) { s.Cohorts[0].Mix[0].Weight = 0 }, "weight"},
		{"train share", func(s *Spec) { s.Cohorts[0].TrainShare = 1.5 }, "train_share"},
		{"zero period", func(s *Spec) { s.Cohorts[0].Envelope = []Period{{Cycles: 0, Scale: 1}} }, "cycles"},
		{"negative scale", func(s *Spec) { s.Cohorts[0].Envelope = []Period{{Cycles: 10, Scale: -1}} }, "scale"},
	}
	for _, tc := range cases {
		s := valid()
		tc.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Bad cohort scheme surfaces at compile time.
	s := valid()
	s.Cohorts[0].Scheme = "warp"
	if _, _, err := Compile(s, Options{}); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Errorf("bad scheme: %v", err)
	}
}

func TestEnvelopeAt(t *testing.T) {
	e := newEnvelope([]Period{{Cycles: 100, Scale: 2}, {Cycles: 50, Scale: 0}})
	cases := []struct {
		t      uint64
		scale  float64
		segEnd uint64
	}{
		{0, 2, 100}, {99, 2, 100}, {100, 0, 150}, {149, 0, 150},
		{150, 2, 250}, {260, 0, 300}, {300, 2, 400},
	}
	for _, tc := range cases {
		scale, end := e.at(tc.t)
		if scale != tc.scale || end != tc.segEnd {
			t.Errorf("at(%d) = (%g, %d), want (%g, %d)", tc.t, scale, end, tc.scale, tc.segEnd)
		}
	}
	// No envelope: flat scale 1.
	if scale, _ := newEnvelope(nil).at(12345); scale != 1 {
		t.Errorf("empty envelope scale = %g", scale)
	}
}

// TestZeroScaleSilences pins that a zero-scale segment stays quiet.
// The scale in force at an interval's start governs the whole interval
// (the documented piecewise approximation), so the interval straddling
// the boundary may land its launch at the segment's first cycle — but
// never strictly inside it.
func TestZeroScaleSilences(t *testing.T) {
	s := flatSpec()
	s.Cohorts[0].Envelope = []Period{{Cycles: 2_000_000, Scale: 1}, {Cycles: 2_000_000, Scale: 0}}
	arrivals, m, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.CloseArrivals(arrivals)
	for _, l := range m.Launches {
		phase := l.At % 4_000_000
		if phase > 2_000_000 {
			t.Errorf("launch at %d falls inside a zero-scale segment", l.At)
		}
	}
	if len(m.Launches) == 0 {
		t.Fatal("no launches at all")
	}
}

// TestModStream pins the modifier arithmetic: rotation, drift, bounds,
// and Close forwarding.
func TestModStream(t *testing.T) {
	src := mem.SliceStream([]mem.Access{
		{Page: 0}, {Page: 1}, {Page: 2}, {Page: 3}, {Page: 4}, {Page: 5},
	})
	m := modify(src, 4, 1, 2) // footprint 4, shift 1, drift every 2 accesses
	var pages []mem.PageID
	for a, ok := m.Next(); ok; a, ok = m.Next() {
		pages = append(pages, a.Page)
	}
	// off = 1 + i/2: pages (p + off) % 4.
	want := []mem.PageID{1, 2, 0, 1, 3, 0}
	if !reflect.DeepEqual(pages, want) {
		t.Fatalf("modified pages %v, want %v", pages, want)
	}

	// Bounds under a real generator: every page below the footprint.
	w, err := workload.ByName("exchange2")
	if err != nil {
		t.Fatal(err)
	}
	ms := modify(w.Stream(workload.Ref), w.FootprintPages, w.FootprintPages-1, 100)
	n := 0
	for a, ok := ms.Next(); ok; a, ok = ms.Next() {
		if uint64(a.Page) >= w.FootprintPages {
			t.Fatalf("access %d: page %d outside footprint %d", n, a.Page, w.FootprintPages)
		}
		n++
	}

	// Unmodified pass-through keeps the raw stream (and its Closer).
	raw := w.Stream(workload.Train)
	if got := modify(raw, w.FootprintPages, 0, 0); got != raw {
		t.Error("modify(0,0) wrapped the stream")
	}
	raw.(mem.Closer).Close()

	// Close on a wrapped stream releases the coroutine underneath.
	wrapped := modify(w.Stream(workload.Train), w.FootprintPages, 3, 0)
	wrapped.(mem.Closer).Close()
}

func TestMaxLaunchesGuard(t *testing.T) {
	s := flatSpec()
	s.Cohorts[0].Arrival.MeanIntervalCycles = 10 // 550k launches before the horizon
	_, _, err := Compile(s, Options{})
	if err == nil || !strings.Contains(err.Error(), "launches") {
		t.Fatalf("runaway spec compiled: %v", err)
	}
	// The guard is adjustable.
	s2 := flatSpec()
	if _, _, err := Compile(s2, Options{MaxLaunches: 2}); err == nil {
		t.Fatal("MaxLaunches 2 admitted 5 launches")
	}
}

// TestNoLaunches pins the empty-stream error.
func TestNoLaunches(t *testing.T) {
	s := flatSpec()
	s.HorizonCycles = 10 // below the first fixed arrival
	if _, _, err := Compile(s, Options{}); err == nil {
		t.Fatal("empty compile succeeded")
	}
}

// TestSelectionRequired pins the SIP wiring: a SIP cohort without a
// Selection callback is a compile error, and with one every SIP launch
// carries it.
func TestSelectionRequired(t *testing.T) {
	s := flatSpec()
	s.Cohorts[0].Scheme = "sip"
	if _, _, err := Compile(s, Options{}); err == nil || !strings.Contains(err.Error(), "Selection") {
		t.Fatalf("SIP compiled without a selection source: %v", err)
	}
}

// TestRateScale pins that RateScale n multiplies launch counts roughly
// n-fold (exactly, for the fixed process).
func TestRateScale(t *testing.T) {
	s := flatSpec()
	a1, m1, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fleet.CloseArrivals(a1)
	a2, m2, err := Compile(s, Options{RateScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	fleet.CloseArrivals(a2)
	if got, want := len(m2.Launches), 2*len(m1.Launches); got != want && got != want+1 {
		t.Errorf("RateScale 2: %d launches, want ~%d", got, want)
	}
}

// TestCompileStartsNoGoroutines pins that compiled launches hold no
// generator coroutine until they are pulled: compiling the fixture at 40×
// its arrival rate (hundreds of launches) adds no goroutine.
func TestCompileStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	arrivals, m, err := Compile(loadFixture(t), Options{Scheme: sim.DFPStop, RateScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.CloseArrivals(arrivals)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("compiling %d launches raised the goroutine count from %d to %d",
			len(m.Launches), before, after)
	}
}

// TestCompileThroughFleet runs the fixture end-to-end: compile, place
// onto two hosts, and require the whole report byte-identical between
// sequential and 8-way host advancement — the spec-level restatement of
// the fleet determinism contract.
func TestCompileThroughFleet(t *testing.T) {
	s := loadFixture(t)
	var outs []string
	for _, workers := range []int{1, 8} {
		arrivals, _, err := Compile(s, Options{Scheme: sim.DFPStop})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fleet.Run(arrivals, fleet.Config{
			Hosts:    2,
			Policy:   fleet.LeastLoaded,
			Platform: sim.SharedConfig{EPCPages: 2048},
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, res.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("fleet report differs across worker counts:\n%s\nvs\n%s", outs[0], outs[1])
	}
}
