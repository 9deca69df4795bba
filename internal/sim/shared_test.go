package sim

import (
	"testing"

	"sgxpreload/internal/core"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/workload"
)

func TestRunSharedValidation(t *testing.T) {
	if _, err := RunShared(nil, SharedConfig{EPCPages: 16}); err == nil {
		t.Fatal("RunShared with no enclaves succeeded")
	}
	bad := []Enclave{{Name: "x", Pages: 0}}
	if _, err := RunShared(bad, SharedConfig{EPCPages: 16}); err == nil {
		t.Fatal("zero-page enclave accepted")
	}
	oob := []Enclave{{
		Name:  "x",
		Pages: 4,
		Trace: []mem.Access{{Page: 10}},
	}}
	if _, err := RunShared(oob, SharedConfig{EPCPages: 16}); err == nil {
		t.Fatal("out-of-range enclave trace accepted")
	}
}

func TestRunSharedSingleEnclaveMatchesSolo(t *testing.T) {
	// One enclave on the shared runner must behave exactly like the
	// same enclave driven step by step, the way stepped drivers (the
	// fleet, live observers) run a solo engine.
	tr := seqTrace(256, 2, 5000)
	enc := Enclave{Name: "only", Trace: tr, Pages: 4096, Scheme: DFP}
	eng, err := New([]Enclave{enc}, SharedConfig{EPCPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	for more := true; more; {
		if more, err = eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	stepped := eng.Result(0)
	shared, err := RunShared([]Enclave{enc}, SharedConfig{EPCPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	if shared[0].Cycles != stepped.Cycles {
		t.Fatalf("shared single-enclave run = %d cycles, stepped = %d", shared[0].Cycles, stepped.Cycles)
	}
	if shared[0].Kernel.DemandFaults != stepped.Kernel.DemandFaults {
		t.Fatalf("fault counts differ: %d vs %d",
			shared[0].Kernel.DemandFaults, stepped.Kernel.DemandFaults)
	}
}

func TestRunSharedContentionHurts(t *testing.T) {
	// Two enclaves halve the effective EPC: each must run slower than it
	// would alone on the full EPC (the paper's §5.6 contention point).
	tr := seqTrace(1500, 2, 30000)
	alone, err := solo(Enclave{Trace: tr, Pages: 2048, Scheme: Baseline}, SharedConfig{EPCPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunShared([]Enclave{
		{Name: "a", Trace: tr, Pages: 2048, Scheme: Baseline},
		{Name: "b", Trace: tr, Pages: 2048, Scheme: Baseline},
	}, SharedConfig{EPCPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Cycles <= alone.Cycles {
			t.Errorf("enclave %s under contention (%d cycles) not slower than solo (%d)",
				r.Name, r.Cycles, alone.Cycles)
		}
	}
}

func TestRunSharedPreloadingStillHelpsEachEnclave(t *testing.T) {
	// §5.6: "each enclave can handle its preloading independently, our
	// proposed schemes will work for each enclave".
	w, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Generate(workload.Ref)
	pages := w.ELRangePages()
	mk := func(scheme Scheme) []Enclave {
		return []Enclave{
			{Name: "a", Trace: tr, Pages: pages, Scheme: scheme},
			{Name: "b", Trace: tr, Pages: pages, Scheme: scheme},
		}
	}
	base, err := RunShared(mk(Baseline), SharedConfig{EPCPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	dfp, err := RunShared(mk(DFP), SharedConfig{EPCPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if dfp[i].Cycles >= base[i].Cycles {
			t.Errorf("enclave %s: DFP (%d) not faster than baseline (%d) under sharing",
				base[i].Name, dfp[i].Cycles, base[i].Cycles)
		}
	}
}

func TestRunSharedIsolatedCounters(t *testing.T) {
	// A preloading enclave next to a non-preloading one: the baseline
	// enclave must report zero preloads of its own. Enough compute per
	// page that the shared channel has idle slots for speculative loads.
	tr := seqTrace(512, 1, 200000)
	res, err := RunShared([]Enclave{
		{Name: "dfp", Trace: tr, Pages: 1024, Scheme: DFP},
		{Name: "plain", Trace: tr, Pages: 1024, Scheme: Baseline},
	}, SharedConfig{EPCPages: 1536})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SharedResult{}
	for _, r := range res {
		byName[r.Name] = r
	}
	if byName["dfp"].Kernel.PreloadsStarted == 0 {
		t.Error("DFP enclave started no preloads")
	}
	if byName["plain"].Kernel.PreloadsStarted != 0 {
		t.Error("baseline enclave charged with preloads")
	}
}

// Regression for the shared-engine knob drift: before the unification,
// RunShared silently ignored Config.Predictor — an alternative-predictor
// ablation under EPC contention quietly ran the default multistream
// recognizer. A non-default predictor must now change the outcome.
func TestRunSharedHonorsPredictor(t *testing.T) {
	w, err := workload.ByName("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Generate(workload.Ref)
	pages := w.ELRangePages()
	run := func(kind core.Kind) []SharedResult {
		res, err := RunShared([]Enclave{
			{Name: "a", Trace: tr, Pages: pages, Scheme: DFP, Predictor: kind},
			{Name: "b", Trace: tr, Pages: pages, Scheme: Baseline},
		}, SharedConfig{EPCPages: 2048})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def, nextn := run(""), run(core.KindNextN)
	if def[0].Cycles == nextn[0].Cycles &&
		def[0].Kernel.PreloadsStarted == nextn[0].Kernel.PreloadsStarted {
		t.Errorf("next-N predictor indistinguishable from multistream under sharing: "+
			"%d cycles / %d preloads both (the pre-unification drift)",
			def[0].Cycles, def[0].Kernel.PreloadsStarted)
	}
	// The explicit default spelling must be the default.
	if exp := run(core.KindMultiStream); exp[0] != def[0] {
		t.Errorf("explicit multistream differs from default: %+v vs %+v", exp[0], def[0])
	}
	// A bogus kind must surface, not be ignored.
	if _, err := RunShared([]Enclave{
		{Name: "a", Trace: tr, Pages: pages, Scheme: DFP, Predictor: core.Kind("bogus")},
	}, SharedConfig{EPCPages: 2048}); err == nil {
		t.Error("unknown predictor kind accepted in a shared run")
	}
}

// Regression for the second dropped knob: BackgroundReclaim is now wired
// per enclave in shared runs.
func TestRunSharedHonorsBackgroundReclaim(t *testing.T) {
	tr := seqTrace(1500, 2, 30000)
	run := func(reclaim bool) []SharedResult {
		res, err := RunShared([]Enclave{
			{Name: "a", Trace: tr, Pages: 2048, Scheme: Baseline, BackgroundReclaim: reclaim},
			{Name: "b", Trace: tr, Pages: 2048, Scheme: Baseline},
		}, SharedConfig{EPCPages: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(false), run(true)
	if off[0].Kernel.BackgroundEvictions != 0 {
		t.Errorf("reclaim off, yet %d background evictions", off[0].Kernel.BackgroundEvictions)
	}
	if on[0].Kernel.BackgroundEvictions == 0 {
		t.Error("reclaim on, yet the enclave ran no background evictions (knob still dropped)")
	}
	if on[1].Kernel.BackgroundEvictions != 0 {
		t.Errorf("reclaim enabled on enclave a only, but b ran %d background evictions",
			on[1].Kernel.BackgroundEvictions)
	}
}

func TestRunSharedDeterminism(t *testing.T) {
	tr := seqTrace(300, 2, 7000)
	run := func() []SharedResult {
		res, err := RunShared([]Enclave{
			{Name: "a", Trace: tr, Pages: 512, Scheme: DFPStop},
			{Name: "b", Trace: tr, Pages: 512, Scheme: Baseline},
		}, SharedConfig{EPCPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shared run not deterministic: %+v vs %+v", a[i], b[i])
		}
	}
}
