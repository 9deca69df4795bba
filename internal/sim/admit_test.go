package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sgxpreload/internal/epc"
	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// TestDynamicCohortAtZeroEqualsNew: a dynamic engine admitting its whole
// cohort at time zero is the static engine — New is an admit-loop at
// t = 0, so results and the hooked event timeline must be byte-identical.
// This is the fleet layer's byte-identity anchor: a one-host fleet with
// every arrival at t = 0 reduces to exactly this construction.
func TestDynamicCohortAtZeroEqualsNew(t *testing.T) {
	recA, recB := obs.NewRecorder(), obs.NewRecorder()

	static, err := RunShared(tieBreakEnclaves(12), SharedConfig{EPCPages: 96, Hook: recA})
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewDynamic(SharedConfig{EPCPages: 96, Hook: recB})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tieBreakEnclaves(12) {
		if err := eng.Admit(e, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	dynamic := eng.Results()

	if a, b := fmt.Sprintf("%#v", static), fmt.Sprintf("%#v", dynamic); a != b {
		t.Errorf("dynamic cohort at t=0 diverges from New:\n  static  %.300s\n  dynamic %.300s", a, b)
	}
	var ba, bb strings.Builder
	if err := obs.WriteJSONL(&ba, recA.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(&bb, recB.Events()); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Errorf("dynamic timeline diverges: %s", firstDiffLine(ba.String(), bb.String()))
	}
}

// TestDynamicMidRunAdmission: enclaves admitted mid-run start their
// clocks at the admission time (Cycles are absolute virtual time, not
// runtime), the earlier cohort's contention changes when latecomers
// arrive, and the whole interleaving is deterministic across reruns.
func TestDynamicMidRunAdmission(t *testing.T) {
	run := func() []SharedResult {
		eng, err := NewDynamic(SharedConfig{EPCPages: 48})
		if err != nil {
			t.Fatal(err)
		}
		first := tieBreakEnclaves(6)
		for _, e := range first {
			if err := eng.Admit(e, 0); err != nil {
				t.Fatal(err)
			}
		}
		const launch = 200_000
		if err := eng.RunUntil(launch); err != nil {
			t.Fatal(err)
		}
		for i, e := range tieBreakEnclaves(6)[:3] {
			e.Name = fmt.Sprintf("late%04d", i)
			if err := eng.Admit(e, launch); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		res := eng.Results()
		for _, r := range res[6:] {
			if r.Cycles < launch {
				t.Errorf("late enclave %s finished at %d, before its launch at %d", r.Name, r.Cycles, launch)
			}
		}
		return res
	}
	a, b := run(), run()
	if x, y := fmt.Sprintf("%#v", a), fmt.Sprintf("%#v", b); x != y {
		t.Error("mid-run admission is not deterministic across reruns")
	}
}

// TestDynamicSignals: the placement signals a fleet reads off a host
// engine — Running, EPCResident, NextKey — over the admit/drain cycle.
func TestDynamicSignals(t *testing.T) {
	eng, err := NewDynamic(SharedConfig{EPCPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Running() != 0 || eng.EPCResident() != 0 {
		t.Fatalf("fresh dynamic engine: Running=%d EPCResident=%d, want 0/0", eng.Running(), eng.EPCResident())
	}
	if _, ok := eng.NextKey(); ok {
		t.Error("fresh dynamic engine claims a scheduled event")
	}
	for _, e := range tieBreakEnclaves(4) {
		if err := eng.Admit(e, 1000); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Running() != 4 {
		t.Fatalf("Running=%d after 4 admissions, want 4", eng.Running())
	}
	if key, ok := eng.NextKey(); !ok || key < 1000 {
		t.Errorf("NextKey=(%d,%v) after admission at 1000, want key >= 1000", key, ok)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if eng.Running() != 0 {
		t.Errorf("Running=%d after drain, want 0", eng.Running())
	}
	if eng.EPCResident() == 0 {
		t.Error("EPCResident=0 after a run that touched pages")
	}
}

// TestAdmitErrors: admission is one transaction. A dynamic engine under
// static quotas, hooked, is offered one failing enclave of each kind
// between its good admissions — zero pages, an unknown predictor, a page
// space past epc.MaxPages, and a launch plus first compute past uint64 —
// before its first enclave too, when the EPC does not exist yet. Each
// failure must close the enclave's stream and leave the engine exactly as
// an engine never offered it: same page space, owners and quotas, and
// the same results and events to the end of the run.
func TestAdmitErrors(t *testing.T) {
	if _, err := NewDynamic(SharedConfig{}); err == nil {
		t.Error("NewDynamic with zero EPCPages: want error")
	}
	good := tieBreakEnclaves(3)
	launches := []uint64{0, 200_000, 400_000}
	bad := []struct {
		name string
		enc  Enclave
		now  uint64 // 0: at the next good enclave's launch
		want string
	}{
		{"zero-pages", Enclave{Scheme: Baseline}, 0, "zero pages"},
		{"unknown-predictor", Enclave{Pages: 100, Scheme: DFP, Predictor: "bogus"}, 0, "bogus"},
		{"past-max-pages", Enclave{Pages: epc.MaxPages + 1, Scheme: Baseline}, 0, "maximum"},
		{"saturated-launch", Enclave{Pages: 8, Scheme: Baseline}, math.MaxUint64 - 10, "saturated"},
	}
	run := func(offer bool) ([]SharedResult, string) {
		rec := obs.NewRecorder()
		eng, err := NewDynamic(SharedConfig{EPCPages: 96, Quota: arbiter.Static, Hook: rec})
		if err != nil {
			t.Fatal(err)
		}
		space := func() uint64 {
			if eng.shared == nil {
				return 0
			}
			return eng.shared.Pages()
		}
		for i, enc := range good {
			if err := eng.RunUntil(launches[i]); err != nil {
				t.Fatal(err)
			}
			for _, b := range bad {
				if !offer {
					break
				}
				pages, events := space(), len(rec.Events())
				closed := false
				enc := b.enc
				enc.Name = b.name
				enc.Stream = &closeProbeStream{
					acc:     []mem.Access{{Compute: 1 << 40}},
					onClose: func() { closed = true },
				}
				now := launches[i]
				if b.now != 0 {
					now = b.now
				}
				err := eng.Admit(enc, now)
				if err == nil || !strings.Contains(err.Error(), b.want) {
					t.Errorf("before admission %d, %s: want an error containing %q, got %v", i, b.name, b.want, err)
				}
				if !closed {
					t.Errorf("before admission %d, %s: the enclave's stream was not closed", i, b.name)
				}
				if got := space(); got != pages {
					t.Errorf("before admission %d, %s: page space %d, want %d", i, b.name, got, pages)
				}
				if n := len(eng.Results()); n != i || eng.arb.N() != i {
					t.Errorf("before admission %d, %s: %d results and %d quota owners, want %d", i, b.name, n, eng.arb.N(), i)
				}
				if n := len(rec.Events()); n != events {
					t.Errorf("before admission %d, %s: %d events emitted", i, b.name, n-events)
				}
			}
			if err := eng.Admit(enc, launches[i]); err != nil {
				t.Fatalf("admission %d after rejected ones: %v", i, err)
			}
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := obs.WriteJSONL(&b, rec.Events()); err != nil {
			t.Fatal(err)
		}
		return eng.Results(), b.String()
	}
	wantRes, wantEvents := run(false)
	gotRes, gotEvents := run(true)
	if a, b := fmt.Sprintf("%#v", wantRes), fmt.Sprintf("%#v", gotRes); a != b {
		t.Errorf("rejected admissions changed the results:\n  never offered %.300s\n  offered       %.300s", a, b)
	}
	if wantEvents != gotEvents {
		t.Errorf("rejected admissions changed the timeline: %s", firstDiffLine(wantEvents, gotEvents))
	}
}

// TestPageSpaceBound: a declared page space past epc.MaxPages is an
// error, not a panic — at construction, and when an admission would grow
// the shared space past the bound, which leaves the engine and its page
// space as they were.
func TestPageSpaceBound(t *testing.T) {
	huge := func(pages uint64, closed *bool) Enclave {
		return Enclave{Name: "huge", Scheme: Baseline, Pages: pages,
			Stream: &closeProbeStream{onClose: func() { *closed = true }}}
	}
	for _, pages := range []uint64{epc.MaxPages + 1, 1 << 62} {
		closed := false
		_, err := New([]Enclave{huge(pages, &closed)}, SharedConfig{EPCPages: 64})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(pages)) {
			t.Errorf("New over %d pages: want an error naming the space, got %v", pages, err)
		}
		if !closed {
			t.Errorf("New over %d pages did not close the stream", pages)
		}
	}

	eng, err := NewDynamic(SharedConfig{EPCPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	encs := tieBreakEnclaves(3)
	for _, e := range encs[:2] {
		if err := eng.Admit(e, 0); err != nil {
			t.Fatal(err)
		}
	}
	closed := false
	err = eng.Admit(huge(epc.MaxPages, &closed), 0)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(epc.MaxPages+128)) {
		t.Errorf("admission past the bound: want an error naming %d pages, got %v", epc.MaxPages+128, err)
	}
	if !closed {
		t.Error("rejected admission did not close the enclave's stream")
	}
	if got := eng.shared.Pages(); got != 128 {
		t.Fatalf("rejected admission left a %d-page space, want 128", got)
	}
	if err := eng.Admit(encs[2], 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if n := len(eng.Results()); n != 3 {
		t.Fatalf("%d results after a rejected admission, want 3", n)
	}
}

// closeProbeStream yields acc, then ends, and records Close — for
// asserting stream-release on admission failure.
type closeProbeStream struct {
	acc     []mem.Access
	onClose func()
}

func (s *closeProbeStream) Next() (mem.Access, bool) {
	if len(s.acc) == 0 {
		return mem.Access{}, false
	}
	a := s.acc[0]
	s.acc = s.acc[1:]
	return a, true
}

func (s *closeProbeStream) Close() { s.onClose() }
