package sim

import (
	"testing"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/workload"
)

// preloadLedger counts, per enclave, the events that decide the fate of
// a queued preload. Shared-run events carry global pages, so an event
// belongs to the enclave whose page range holds its page.
type preloadLedger struct {
	lo, hi []mem.PageID // enclave i's pages are [lo[i], hi[i])
	queued []uint64     // preload_queue events
	loads  []uint64     // speculative load_start events
	aborts []uint64     // preload_abort events, every reason
	// dropped counts the aborts whose reason is not AbortInWindow: the
	// ones kernel.Stats.PreloadsDropped counts.
	dropped []uint64
}

// ranges sizes the ledger to the engine's enclaves.
func (l *preloadLedger) ranges(e *Engine) {
	for _, st := range e.states {
		l.lo = append(l.lo, st.base)
		l.hi = append(l.hi, st.base+mem.PageID(st.enc.Pages))
	}
	n := len(e.states)
	l.queued, l.loads, l.aborts, l.dropped = make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
}

func (l *preloadLedger) owner(p mem.PageID) int {
	for i := range l.lo {
		if p >= l.lo[i] && p < l.hi[i] {
			return i
		}
	}
	return -1
}

func (l *preloadLedger) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindPreloadQueue:
		l.queued[l.owner(e.Page)]++
	case obs.KindLoadStart:
		if e.V2 == 1 {
			l.loads[l.owner(e.Page)]++
		}
	case obs.KindPreloadAbort:
		i := l.owner(e.Page)
		l.aborts[i]++
		if e.V1 != obs.AbortInWindow {
			l.dropped[i]++
		}
	}
}

// TestPreloadAccounting checks where every queued preload goes, on the
// event stream of every scheme over the golden workloads and of an
// adaptive-quota shared run: each preload_queue event is matched by a
// speculative load_start, a preload_abort, or a request still pending
// when the run ends. It also pins what kernel.Stats.PreloadsDropped
// counts: every abort except the in-window ones, which only
// InWindowAborts records (once per fault, not per dropped request).
// Every cell ends with checkOwnership.
func TestPreloadAccounting(t *testing.T) {
	check := func(label string, encs []Enclave, cfg SharedConfig) (inWindow uint64) {
		t.Helper()
		ledger := &preloadLedger{}
		cfg.Hook = ledger
		eng, err := New(encs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ledger.ranges(eng)
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := checkOwnership(eng); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, st := range eng.states {
			s := st.kern.Stats()
			pending := uint64(st.kern.Channel().PendingLen())
			if q := ledger.queued[i]; q != ledger.loads[i]+ledger.aborts[i]+pending {
				t.Errorf("%s enclave %s: %d queued != %d started + %d aborted + %d pending",
					label, st.enc.Name, q, ledger.loads[i], ledger.aborts[i], pending)
			}
			if ledger.queued[i] != s.PreloadsQueued || ledger.loads[i] != s.PreloadsStarted {
				t.Errorf("%s enclave %s: %d queue / %d speculative load events, Stats counts %d / %d",
					label, st.enc.Name, ledger.queued[i], ledger.loads[i], s.PreloadsQueued, s.PreloadsStarted)
			}
			if s.PreloadsDropped != ledger.dropped[i] {
				t.Errorf("%s enclave %s: PreloadsDropped %d != %d aborts outside the fault's window",
					label, st.enc.Name, s.PreloadsDropped, ledger.dropped[i])
			}
			inWindow += ledger.aborts[i] - ledger.dropped[i]
		}
		return inWindow
	}

	var inWindow uint64
	for _, bench := range diffBenches {
		w, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range diffSchemes {
			enc := Enclave{Name: bench, Stream: w.Stream(workload.Ref), Pages: w.ELRangePages(), Scheme: scheme}
			if scheme.UsesSIP() {
				enc.Selection = diffSelection(t, w)
			}
			inWindow += check("run/"+bench+"/"+scheme.String(), []Enclave{enc}, SharedConfig{EPCPages: 2048})
		}
	}
	var cohort []Enclave
	for _, name := range []string{"lbm", "omnetpp", "leela", "xz"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cohort = append(cohort, Enclave{Name: name, Stream: w.Stream(workload.Ref), Pages: w.ELRangePages(), Scheme: DFPStop})
	}
	inWindow += check("shared/adaptive", cohort, SharedConfig{EPCPages: 2048, Quota: arbiter.Adaptive})
	// The in-window term must be exercised, or the second identity
	// would not tell PreloadsDropped from a count of every abort.
	if inWindow == 0 {
		t.Fatal("no cell dropped a request by an in-window abort")
	}
}
