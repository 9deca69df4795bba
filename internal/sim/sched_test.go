package sim

import (
	"fmt"
	"strings"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/rng"
)

// Scheduler tests: the event-heap scheduler must reproduce the seed's
// linear argmin byte for byte, including its strict first-min tie-break
// (lowest enclave index wins on equal keys). The adversarial fleets
// below are engineered so that key collisions are the common case, not
// the corner case: identical-trace cohorts stay tied at every step, and
// low-entropy compute values make unrelated enclaves' keys re-collide
// constantly mid-run.

// linearStep replicates the seed scheduler verbatim (PR 5's
// Engine.Step): a linear argmin over clock + nextAccess.Compute with
// strict < comparison, so the lowest-index enclave wins every tie. It
// drives the per-enclave execution state directly, bypassing the heap —
// the reference the heap is differentially compared against.
func linearStep(e *Engine) (bool, error) {
	var next *enclaveState
	for _, st := range e.states {
		if !st.has {
			continue
		}
		if next == nil || st.t+st.next.Compute < next.t+next.next.Compute {
			next = st
		}
	}
	if next == nil {
		return false, nil
	}
	// Never quiet: the reference scans and syncs the kernel on every
	// access, the semantics the engine's horizon skip is checked against.
	if _, err := next.step(&e.cfg.Costs, false); err != nil {
		return false, err
	}
	next.advance()
	return true, nil
}

// tieTrace draws computes from {0, 10, 20} so enclaves' scheduling keys
// collide constantly even when their traces differ.
func tieTrace(r *rng.Source, n int, pages uint64) []mem.Access {
	out := make([]mem.Access, n)
	for i := range out {
		out[i] = mem.Access{
			Site:    mem.SiteID(1 + r.Intn(4)),
			Page:    mem.PageID(r.Uint64n(pages)),
			Compute: uint64(r.Intn(3)) * 10,
		}
	}
	return out
}

// tieBreakEnclaves builds an E-enclave fleet engineered for scheduler-key
// collisions: even indices share one trace (a cohort that is tied at
// every single step, so every pick exercises the lowest-index rule),
// odd indices get independent low-entropy traces, and the schemes cycle
// so DFP preload traffic perturbs the clocks mid-run.
func tieBreakEnclaves(e int) []Enclave {
	schemes := []Scheme{Baseline, DFP, DFPStop}
	r := rng.New(uint64(e)*7919 + 1)
	const pages = 64
	tied := tieTrace(r.Fork(), 200, pages)
	encs := make([]Enclave, e)
	for i := range encs {
		tr := tied
		if i%2 == 1 {
			tr = tieTrace(r.Fork(), 200, pages)
		}
		encs[i] = Enclave{
			Name:   fmt.Sprintf("enc%04d", i),
			Trace:  tr,
			Pages:  pages,
			Scheme: schemes[i%len(schemes)],
		}
	}
	return encs
}

// tieBreakCell runs the E-enclave tie-break fleet hooked and renders the
// golden-hash artifacts (Results dump + JSONL + replayed report), the
// same three artifacts the seed golden table pins.
func tieBreakCell(t testing.TB, e int) diffArtifacts {
	t.Helper()
	rec := obs.NewRecorder()
	res, err := RunShared(tieBreakEnclaves(e), SharedConfig{EPCPages: e * 8, Hook: rec})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := obs.WriteJSONL(&b, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return diffArtifacts{
		result: fmt.Sprintf("%#v", res),
		jsonl:  b.String(),
		report: obs.BuildReport(rec.Events()).String(),
	}
}

// TestDifferentialHeapVsLinear drives two identical fleets to
// completion, one through Engine.Step (the event heap), one through the
// seed's linear argmin, and requires identical results — and, at the
// hooked sizes, an identical event timeline, which pins the *order* of
// every scheduling decision, not just the totals. E=1024 is the CI
// scale gate for the heap (the linear reference goes quadratic there,
// so the trace per enclave is short).
func TestDifferentialHeapVsLinear(t *testing.T) {
	for _, e := range []int{8, 64, 1024} {
		t.Run(fmt.Sprintf("E=%d", e), func(t *testing.T) {
			hooked := e <= 64
			var recHeap, recLin *obs.Recorder
			cfgHeap := SharedConfig{EPCPages: e * 8}
			cfgLin := cfgHeap
			if hooked {
				recHeap, recLin = obs.NewRecorder(), obs.NewRecorder()
				cfgHeap.Hook, cfgLin.Hook = recHeap, recLin
			}
			heapEng, err := New(tieBreakEnclaves(e), cfgHeap)
			if err != nil {
				t.Fatal(err)
			}
			linEng, err := New(tieBreakEnclaves(e), cfgLin)
			if err != nil {
				t.Fatal(err)
			}
			for {
				more, err := heapEng.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !more {
					break
				}
			}
			for {
				more, err := linearStep(linEng)
				if err != nil {
					t.Fatal(err)
				}
				if !more {
					break
				}
			}
			hr := fmt.Sprintf("%#v", heapEng.Results())
			lr := fmt.Sprintf("%#v", linEng.Results())
			if hr != lr {
				t.Errorf("E=%d: heap results diverge from linear argmin:\n  heap   %.300s\n  linear %.300s", e, hr, lr)
			}
			if hooked {
				var hb, lb strings.Builder
				if err := obs.WriteJSONL(&hb, recHeap.Events()); err != nil {
					t.Fatal(err)
				}
				if err := obs.WriteJSONL(&lb, recLin.Events()); err != nil {
					t.Fatal(err)
				}
				if hb.String() != lb.String() {
					t.Errorf("E=%d: event timeline diverges (%d vs %d bytes): %s",
						e, hb.Len(), lb.Len(), firstDiffLine(hb.String(), lb.String()))
				}
			}
		})
	}
}
