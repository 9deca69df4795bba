package sgxpreload_test

import (
	"strings"
	"testing"

	"sgxpreload"
)

func TestBenchmarkRegistry(t *testing.T) {
	names := sgxpreload.Benchmarks()
	if len(names) == 0 {
		t.Fatal("no built-in benchmarks")
	}
	for _, name := range []string{"lbm", "mcf", "deepsjeng", "SIFT", "MSER", "mixed-blood", "microbenchmark"} {
		if _, err := sgxpreload.Benchmark(name); err != nil {
			t.Errorf("Benchmark(%q): %v", name, err)
		}
	}
	if _, err := sgxpreload.Benchmark("unknown"); err == nil {
		t.Error("unknown benchmark resolved")
	}
}

func TestRunBaselineVsDFP(t *testing.T) {
	w, err := sgxpreload.Benchmark("lbm")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sgxpreload.Run(w, sgxpreload.Config{Scheme: sgxpreload.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sgxpreload.Run(w, sgxpreload.Config{Scheme: sgxpreload.DFP})
	if err != nil {
		t.Fatal(err)
	}
	imp := sgxpreload.ImprovementPct(d, base)
	if imp < 9 || imp > 17 {
		t.Fatalf("lbm DFP improvement = %+.1f%%, want near the paper's +13.3%%", imp)
	}
	if d.PreloadsStarted == 0 {
		t.Error("DFP run reported no preloads")
	}
	if base.Faults == 0 || base.Accesses == 0 {
		t.Errorf("baseline counters empty: %+v", base)
	}
}

func TestProfileAndSIP(t *testing.T) {
	w, err := sgxpreload.Benchmark("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sgxpreload.DefaultConfig()
	sel, err := sgxpreload.Profile(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Points() == 0 {
		t.Fatal("profiling deepsjeng selected no instrumentation points")
	}
	cfg.Scheme = sgxpreload.SIP
	cfg.Selection = sel
	res, err := sgxpreload.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sgxpreload.Run(w, sgxpreload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if imp := sgxpreload.ImprovementPct(res, base); imp < 5 {
		t.Fatalf("deepsjeng SIP improvement = %+.1f%%, want a solid gain", imp)
	}
	if res.NotifyLoads == 0 {
		t.Error("SIP run issued no notify loads")
	}
}

// customWorkload demonstrates the public interface with a user-defined
// access pattern: a strided sweep.
type customWorkload struct{}

func (customWorkload) Name() string  { return "custom-stride" }
func (customWorkload) Pages() uint64 { return 4096 }
func (customWorkload) Trace(in sgxpreload.Input) []sgxpreload.Access {
	n := 4096
	if in == sgxpreload.Train {
		n = 512
	}
	out := make([]sgxpreload.Access, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, sgxpreload.Access{Site: 1, Page: uint64(i), Compute: 80000})
	}
	return out
}

func TestCustomWorkload(t *testing.T) {
	var w customWorkload
	base, err := sgxpreload.Run(w, sgxpreload.Config{EPCPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sgxpreload.Run(w, sgxpreload.Config{Scheme: sgxpreload.DFP, EPCPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cycles >= base.Cycles {
		t.Fatalf("DFP (%d) not faster than baseline (%d) on a custom sweep", d.Cycles, base.Cycles)
	}
}

type badWorkload struct{ customWorkload }

func (badWorkload) Pages() uint64 { return 10 } // trace touches pages >= 10

// badStreamer is badWorkload with a Streamer path.
type badStreamer struct{ badWorkload }

func (b badStreamer) Stream(in sgxpreload.Input) sgxpreload.AccessStream {
	tr, i := b.Trace(in), 0
	return sgxpreload.StreamFunc(func() (sgxpreload.Access, bool) {
		if i == len(tr) {
			return sgxpreload.Access{}, false
		}
		i++
		return tr[i-1], true
	})
}

// TestOutOfRangeWorkloadRejected: an access past the declared pages is
// an error naming the workload, the access index and the page, at every
// entry point that takes a Workload, on the slice and the Streamer path.
func TestOutOfRangeWorkloadRejected(t *testing.T) {
	for _, w := range []sgxpreload.Workload{badWorkload{}, badStreamer{}} {
		entries := map[string]func() error{
			"Run": func() error { _, err := sgxpreload.Run(w, sgxpreload.Config{}); return err },
			"RunInput": func() error {
				_, err := sgxpreload.RunInput(w, sgxpreload.Train, sgxpreload.Config{})
				return err
			},
			"RunWorkloadStream": func() error {
				_, err := sgxpreload.RunWorkloadStream(w, sgxpreload.Ref, sgxpreload.Config{})
				return err
			},
			"RunShared": func() error {
				_, err := sgxpreload.RunShared([]sgxpreload.EnclaveSpec{
					{Workload: customWorkload{}}, {Workload: w},
				}, sgxpreload.Config{})
				return err
			},
			"Profile": func() error { _, err := sgxpreload.Profile(w, sgxpreload.DefaultConfig()); return err },
		}
		for name, call := range entries {
			err := call()
			if err == nil {
				t.Errorf("%T %s: out-of-range workload accepted", w, name)
				continue
			}
			for _, want := range []string{"custom-stride", "access 10 ", "page 10 "} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%T %s: error %q does not name %q", w, name, err, want)
				}
			}
		}
	}
}

func TestDFPStopFires(t *testing.T) {
	w, err := sgxpreload.Benchmark("roms")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sgxpreload.Run(w, sgxpreload.Config{Scheme: sgxpreload.DFPStop})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StopFired {
		t.Error("safety valve did not fire on roms")
	}
}

func TestConfigKnobsRespected(t *testing.T) {
	w, err := sgxpreload.Benchmark("microbenchmark")
	if err != nil {
		t.Fatal(err)
	}
	// A stream list of 1 with a single stream still works; LoadLength 1
	// must preload less than LoadLength 8.
	short, err := sgxpreload.Run(w, sgxpreload.Config{
		Scheme: sgxpreload.DFP,
		DFP:    sgxpreload.DFPConfig{StreamListLen: 4, LoadLength: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	long, err := sgxpreload.Run(w, sgxpreload.Config{
		Scheme: sgxpreload.DFP,
		DFP:    sgxpreload.DFPConfig{StreamListLen: 4, LoadLength: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if long.Cycles >= short.Cycles {
		t.Fatalf("LoadLength 8 (%d cycles) not faster than 1 (%d) on a pure scan",
			long.Cycles, short.Cycles)
	}
}

func TestInstrumentable(t *testing.T) {
	if !sgxpreload.Instrumentable("mcf") {
		t.Error("mcf should be instrumentable")
	}
	if sgxpreload.Instrumentable("bwaves") {
		t.Error("bwaves (Fortran) should not be instrumentable")
	}
	if sgxpreload.Instrumentable("nope") {
		t.Error("unknown benchmark reported instrumentable")
	}
}

func TestSchemeStrings(t *testing.T) {
	for s, want := range map[sgxpreload.Scheme]string{
		sgxpreload.Baseline: "baseline",
		sgxpreload.DFP:      "DFP",
		sgxpreload.DFPStop:  "DFP-stop",
		sgxpreload.SIP:      "SIP",
		sgxpreload.Hybrid:   "SIP+DFP",
	} {
		if s.String() != want {
			t.Errorf("Scheme(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}
