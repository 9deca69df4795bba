package sgxpreload

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"sgxpreload/internal/epc"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/workload"
)

func TestBuiltinBenchmarksImplementStreamer(t *testing.T) {
	w, err := Benchmark("lbm")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.(Streamer); !ok {
		t.Fatal("built-in benchmark does not implement Streamer")
	}
}

func TestRunWorkloadStreamMatchesRun(t *testing.T) {
	// The streaming path must be invisible in the results, for both the
	// coroutine (Streamer) path and the slice-backed fallback: each equals
	// the engine run over the generator's materialized trace.
	w, err := Benchmark("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	trace := w.(builtin).w.Generate(workload.Ref)
	for _, scheme := range []Scheme{Baseline, DFPStop} {
		cfg := Config{Scheme: scheme}
		materialized, err := cfg.runSolo(sim.Enclave{Trace: trace, Pages: w.Pages()})
		if err != nil {
			t.Fatal(err)
		}
		run, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if materialized != run {
			t.Errorf("%s: Run diverges from the materialized trace:\n  trace %+v\n  run   %+v",
				scheme, materialized, run)
		}
		streamed, err := RunWorkloadStream(w, Ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if materialized != streamed {
			t.Errorf("%s: streamed run diverges:\n  run    %+v\n  stream %+v",
				scheme, materialized, streamed)
		}
		fallback, err := RunWorkloadStream(noStreamer{w}, Ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if materialized != fallback {
			t.Errorf("%s: slice-backed fallback diverges:\n  run      %+v\n  fallback %+v",
				scheme, materialized, fallback)
		}
	}
}

// noStreamer hides a workload's Streamer implementation to force the
// materialized fallback in RunWorkloadStream.
type noStreamer struct{ w Workload }

func (n noStreamer) Name() string            { return n.w.Name() }
func (n noStreamer) Pages() uint64           { return n.w.Pages() }
func (n noStreamer) Trace(in Input) []Access { return n.w.Trace(in) }

func TestRunStreamCustomSource(t *testing.T) {
	// A hand-written generator: sweep 4096 pages twice through a
	// 1024-frame EPC; DFP must beat baseline on a pure stream.
	const pages, accesses = 4096, 8192
	mk := func() AccessStream {
		var i uint64
		return LimitStream(StreamFunc(func() (Access, bool) {
			i++
			return Access{Page: (i - 1) % pages, Compute: 3000}, true
		}), accesses)
	}
	base, err := RunStream(mk(), pages, Config{Scheme: Baseline, EPCPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if base.Accesses != accesses {
		t.Fatalf("ran %d accesses, want %d", base.Accesses, accesses)
	}
	dfp, err := RunStream(mk(), pages, Config{Scheme: DFP, EPCPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if dfp.Cycles >= base.Cycles {
		t.Errorf("DFP on a sequential stream (%d cycles) not faster than baseline (%d)",
			dfp.Cycles, base.Cycles)
	}
}

func TestRunStreamValidation(t *testing.T) {
	if _, err := RunStream(nil, 100, Config{}); err == nil {
		t.Error("nil stream accepted")
	}
	src := StreamFunc(func() (Access, bool) { return Access{Page: 50}, true })
	if _, err := RunStream(src, 0, Config{}); err == nil {
		t.Error("zero page range accepted")
	}
	// Out-of-range accesses surface as an error, like materialized runs.
	oob := LimitStream(StreamFunc(func() (Access, bool) {
		return Access{Page: 999}, true
	}), 10)
	if _, err := RunStream(oob, 100, Config{}); err == nil {
		t.Error("out-of-range streamed access accepted")
	}
}

// TestRunStreamPageRangeBound: a page range past the EPC's maximum page
// space is an error naming the range, not a panic, and the old 2²²-page
// array bound still runs.
func TestRunStreamPageRangeBound(t *testing.T) {
	mk := func() AccessStream {
		return LimitStream(StreamFunc(func() (Access, bool) { return Access{Page: 7}, true }), 10)
	}
	for _, pages := range []uint64{epc.MaxPages + 1, 1 << 62} {
		_, err := RunStream(mk(), pages, DefaultConfig())
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(pages)) {
			t.Errorf("RunStream over %d pages: want an error naming the range, got %v", pages, err)
		}
	}
	if _, err := RunStream(mk(), 1<<22, DefaultConfig()); err != nil {
		t.Errorf("RunStream over 2^22 pages: %v", err)
	}
}

func TestLimitStream(t *testing.T) {
	var produced int
	src := StreamFunc(func() (Access, bool) {
		produced++
		return Access{Page: uint64(produced)}, true
	})
	lim := LimitStream(src, 3)
	for i := 0; i < 3; i++ {
		if _, ok := lim.Next(); !ok {
			t.Fatalf("limited stream ended at %d of 3", i)
		}
	}
	if _, ok := lim.Next(); ok {
		t.Error("limited stream exceeded its cap")
	}
	if produced != 3 {
		t.Errorf("limit pulled %d accesses from the source, want 3", produced)
	}
}

func TestLimitStreamReleasesGenerator(t *testing.T) {
	// A built-in benchmark's Stream runs a generator coroutine; capping
	// it must not leave the coroutine behind after the run, and Close
	// must reach it through the cap.
	w, err := Benchmark("lbm")
	if err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		src := LimitStream(w.(Streamer).Stream(Ref), 1000)
		if _, err := RunStream(src, w.Pages(), DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	// Closing a partly read stream releases the coroutine too.
	for i := 0; i < 20; i++ {
		src := LimitStream(w.(Streamer).Stream(Ref), 1000)
		src.Next()
		src.(interface{ Close() }).Close()
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > start; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > start {
		t.Fatalf("%d goroutines after 20 capped runs, %d before: the capped generators leaked", n, start)
	}
}

func TestSharedPredictorKnob(t *testing.T) {
	w, err := Benchmark("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	run := func(pred string) []SharedResult {
		res, err := RunShared([]EnclaveSpec{
			{Workload: w, Scheme: DFP, Predictor: pred},
		}, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def, nextn := run(""), run("nextn")
	if def[0].Result == nextn[0].Result {
		t.Error("per-enclave predictor override had no effect")
	}
	if _, err := RunShared([]EnclaveSpec{
		{Workload: w, Scheme: DFP, Predictor: "bogus"},
	}, DefaultConfig()); err == nil {
		t.Error("unknown predictor name accepted")
	}
}
