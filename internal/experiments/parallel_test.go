package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
)

// sweep's own semantics: results land by item index and an empty sweep
// is (nil, nil). Dispatch and error ordering are the pool's, tested in
// internal/pool.

func TestSweepOrdering(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 3, 64} {
		r := NewRunner(Default())
		r.SetParallelism(workers)
		out, err := sweep(r, "squares", items, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	out, err := sweep(NewRunner(Default()), "empty", []int(nil), func(i int) (int, error) { return 0, nil })
	if out != nil || err != nil {
		t.Fatalf("sweep over no items = (%v, %v), want (nil, nil)", out, err)
	}
}

// The determinism guarantee of the worker pool: every table and figure is
// byte-identical at parallelism 1 and parallelism N. Fresh runners on both
// sides so neither leans on the other's caches.

func TestParallelMatchesSequential(t *testing.T) {
	seq := NewRunner(Default())
	seq.SetParallelism(1)
	par := NewRunner(Default())
	par.SetParallelism(8)

	f3s, err := Figure3(seq)
	if err != nil {
		t.Fatal(err)
	}
	f3p, err := Figure3(par)
	if err != nil {
		t.Fatal(err)
	}
	if f3s.String() != f3p.String() {
		t.Errorf("Figure3 diverges between -parallel 1 and -parallel 8:\n--- seq ---\n%s--- par ---\n%s",
			f3s.String(), f3p.String())
	}

	// Figure 10 exercises the RunAll grid plus the SIP profile/selection
	// caches under concurrent single-flight fills.
	f10s, err := Figure10(seq)
	if err != nil {
		t.Fatal(err)
	}
	f10p, err := Figure10(par)
	if err != nil {
		t.Fatal(err)
	}
	if f10s.String() != f10p.String() {
		t.Errorf("Figure10 diverges between -parallel 1 and -parallel 8:\n--- seq ---\n%s--- par ---\n%s",
			f10s.String(), f10p.String())
	}
}

func TestRunAllShape(t *testing.T) {
	r := NewRunner(Default())
	r.SetParallelism(4)
	names := []string{"lbm", "microbenchmark"}
	schemes := []sim.Scheme{sim.Baseline, sim.DFPStop}
	res, err := r.RunAll(names, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(names) {
		t.Fatalf("RunAll returned %d rows, want %d", len(res), len(names))
	}
	for i, row := range res {
		if len(row) != len(schemes) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(schemes))
		}
		for j, cell := range row {
			if cell.Scheme != schemes[j] {
				t.Errorf("res[%d][%d].Scheme = %v, want %v", i, j, cell.Scheme, schemes[j])
			}
			if cell.Cycles == 0 {
				t.Errorf("res[%d][%d] has zero cycles", i, j)
			}
		}
	}
	if res[0][0].Cycles == res[1][0].Cycles {
		t.Error("distinct workloads produced identical baseline cycles")
	}
}

func TestRunAllPropagatesUnknownName(t *testing.T) {
	r := NewRunner(Default())
	_, err := r.RunAll([]string{"no-such-benchmark"}, []sim.Scheme{sim.Baseline})
	if err == nil {
		t.Fatal("RunAll with an unknown benchmark returned nil error")
	}
}

// Cache single-flight: concurrent requesters of the same trace, profile,
// or selection must share exactly one fill, and selections at different
// thresholds share one memo. Run under -race this also checks the memo's
// synchronization.

func TestCacheSingleFlight(t *testing.T) {
	r := NewRunner(Default())
	w, err := workload.ByName("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	profiles := make([]*sip.Profile, goroutines)
	selections := make([]*sip.Selection, goroutines)
	loose := make([]*sip.Selection, goroutines)
	traceFirst := make([]*mem.Access, goroutines)

	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			tr := r.Trace(w, workload.Ref)
			if len(tr) > 0 {
				traceFirst[g] = &tr[0]
			}
			p, err := r.Profile(w)
			if err != nil {
				t.Error(err)
				return
			}
			profiles[g] = p
			s, err := r.Selection(w)
			if err != nil {
				t.Error(err)
				return
			}
			selections[g] = s
			if loose[g], err = r.selection(w, 0.10); err != nil {
				t.Error(err)
			}
		}(g)
	}
	start.Done()
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if profiles[g] != profiles[0] {
			t.Fatalf("goroutine %d saw a different *Profile: the fill ran more than once", g)
		}
		if selections[g] != selections[0] || loose[g] != loose[0] {
			t.Fatalf("goroutine %d saw a different *Selection: the fill ran more than once", g)
		}
		if traceFirst[g] != traceFirst[0] {
			t.Fatalf("goroutine %d saw a different trace backing array: the fill ran more than once", g)
		}
	}
	// The default-threshold selection is the one a threshold sweep gets
	// at that threshold.
	if s, err := r.selection(w, r.p.Threshold); err != nil || s != selections[0] {
		t.Fatalf("selection at the default threshold = (%p, %v), want the cached %p", s, err, selections[0])
	}
	// One trace (Ref; the profile fill streams Train past the memo), one
	// profile, two selections (default and 10% thresholds) — each filled
	// exactly once.
	if r.traces.size() != 1 || r.profiles.size() != 1 || r.selections.size() != 2 {
		t.Fatalf("cache sizes = (%d, %d, %d), want (1, 1, 2)",
			r.traces.size(), r.profiles.size(), r.selections.size())
	}
}

// distinctCells is the number of distinct single-enclave simulations
// behind every single-enclave study. The cell memo runs each once, so
// the count is the same at any parallelism; a change that splits equal
// runs into different keys (say, a pointer in the cell) or adds cells
// moves it.
const distinctCells = 195

func TestCellsSimulatedOnce(t *testing.T) {
	studies := map[string]func(r *Runner) error{
		"motivation": func(r *Runner) error { _, err := Motivation(r); return err },
		"fig6":       func(r *Runner) error { _, err := Figure6(r); return err },
		"fig7":       func(r *Runner) error { _, err := Figure7(r); return err },
		"fig8":       func(r *Runner) error { _, err := Figure8(r); return err },
		"fig9":       func(r *Runner) error { _, err := Figure9(r); return err },
		"fig10":      func(r *Runner) error { _, err := Figure10(r); return err },
		"fig11":      func(r *Runner) error { _, err := Figure11(r); return err },
		"fig12":      func(r *Runner) error { _, err := Figure12(r); return err },
		"fig13":      func(r *Runner) error { _, err := Figure13(r); return err },
		"summary":    func(r *Runner) error { _, err := Summary(r); return err },
		"epc":        func(r *Runner) error { _, err := EPCSweep(r); return err },
		"predictor":  func(r *Runner) error { _, err := PredictorAblation(r); return err },
		"eviction":   func(r *Runner) error { _, err := EvictionAblation(r); return err },
		"loadcost":   func(r *Runner) error { _, err := CostSensitivity(r); return err },
		"shared":     func(r *Runner) error { _, err := SharedEPC(r); return err },
		"reclaim":    func(r *Runner) error { _, err := ReclaimAblation(r); return err },
		"eager":      func(r *Runner) error { _, err := EagerSIP(r); return err },
	}
	// The two runs are independent runners, so they overlap.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			r := NewRunner(Default())
			r.SetParallelism(workers)
			for id, run := range studies {
				if err := run(r); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
			}
			if n := r.cells.size(); n != distinctCells {
				t.Errorf("%d cells simulated, want %d", n, distinctCells)
			}
			if err := studies["summary"](r); err != nil {
				t.Fatal(err)
			}
			if n := r.cells.size(); n != distinctCells {
				t.Errorf("re-running Summary grew the cell memo to %d", n)
			}
		})
	}
}

// Progress reporting: every cell of a sweep is reported exactly once, with
// monotone-coverage done counts and the sweep's total.
func TestProgressReporting(t *testing.T) {
	r := NewRunner(Default())
	r.SetParallelism(4)
	type call struct {
		done, total int
		label       string
	}
	var mu sync.Mutex
	var calls []call
	r.SetProgress(func(done, total int, label string) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, call{done, total, label})
	})
	names := []string{"lbm", "microbenchmark"}
	schemes := []sim.Scheme{sim.Baseline, sim.DFPStop}
	if _, err := r.RunAll(names, schemes); err != nil {
		t.Fatal(err)
	}
	n := len(names) * len(schemes)
	if len(calls) != n {
		t.Fatalf("progress reported %d cells, want %d", len(calls), n)
	}
	seen := map[int]bool{}
	for _, c := range calls {
		if c.total != n {
			t.Errorf("reported total %d, want %d", c.total, n)
		}
		if c.done < 1 || c.done > n || seen[c.done] {
			t.Errorf("done counter %d out of range or duplicated", c.done)
		}
		seen[c.done] = true
		if c.label == "" {
			t.Error("empty progress label")
		}
	}
}

// The speedup benchmark of the PR's acceptance criteria: the full DFP
// grid, sequential versus the worker pool. On a >= 4-core machine the
// parallel variant completes the same work >= 2x faster; on a single-core
// machine the two are equivalent (the pool degenerates to one worker).
//
//	go test ./internal/experiments/ -bench BenchmarkRunAll -run ^$

func benchmarkRunAll(b *testing.B, workers int) {
	names := LargeWorkingSet()
	schemes := []sim.Scheme{sim.Baseline, sim.DFPStop}
	for i := 0; i < b.N; i++ {
		r := NewRunner(Default())
		r.SetParallelism(workers)
		if _, err := r.RunAll(names, schemes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllSequential(b *testing.B) { benchmarkRunAll(b, 1) }

func BenchmarkRunAllParallel(b *testing.B) { benchmarkRunAll(b, runtime.GOMAXPROCS(0)) }
