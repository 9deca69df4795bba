package experiments

import (
	"fmt"

	"sgxpreload/internal/core"
	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/stats"
)

// Ablation studies beyond the paper's figures. DESIGN.md calls out the
// design choices these quantify: the EPC-pressure regime the evaluation
// depends on, the choice of stream recognizer (§4.1 names the design
// space), the driver's CLOCK eviction, the 44,000-cycle load cost the
// protocol analysis is built on (related work — VAULT, Morphable
// Counters — attacks exactly that constant), descending streams, and the
// §5.6 multi-enclave contention scenario.

// EPCSweepResult varies the EPC size for a fixed workload set.
type EPCSweepResult struct {
	EPCPages   []int
	Benchmarks []string
	// Improvement[b][i] is benchmark b's DFP-stop improvement (percent)
	// at EPCPages[i].
	Improvement [][]float64
	// FaultShare[b][i] is the baseline fraction of time in fault handling.
	FaultShare [][]float64
}

// EPCSweep measures how the preloading gains depend on EPC pressure: as
// the EPC approaches the working-set size, faults — and everything
// preloading can recover — vanish.
func EPCSweep(r *Runner) (EPCSweepResult, error) {
	out := EPCSweepResult{
		EPCPages:   []int{1024, 2048, 4096, 8192, 12288},
		Benchmarks: []string{"microbenchmark", "lbm", "deepsjeng"},
	}
	var cells []cell
	for _, name := range out.Benchmarks {
		for _, pages := range out.EPCPages {
			for _, scheme := range []sim.Scheme{sim.Baseline, sim.DFPStop} {
				c := r.cell(name, scheme)
				c.epcPages = pages
				cells = append(cells, c)
			}
		}
	}
	res, err := r.simulate("ablation-epc", cells)
	if err != nil {
		return out, err
	}
	for range out.Benchmarks {
		var imps, shares []float64
		for range out.EPCPages {
			base, d := res[0], res[1]
			res = res[2:]
			imps = append(imps, stats.ImprovementPct(d.Cycles, base.Cycles))
			shares = append(shares, float64(base.FaultCycles())/float64(base.Cycles))
		}
		out.Improvement = append(out.Improvement, imps)
		out.FaultShare = append(out.FaultShare, shares)
	}
	return out, nil
}

// String renders the sweep.
func (a EPCSweepResult) String() string {
	header := []string{"benchmark"}
	for _, p := range a.EPCPages {
		header = append(header, fmt.Sprintf("%dp", p))
	}
	t := &stats.Table{Header: header}
	for i, name := range a.Benchmarks {
		cells := []interface{}{name}
		for _, v := range a.Improvement[i] {
			cells = append(cells, fmt.Sprintf("%+.1f%%", v))
		}
		t.Add(cells...)
	}
	return "Ablation: DFP-stop improvement vs EPC size\n" + t.String()
}

// PredictorAblationResult compares fault-history strategies.
type PredictorAblationResult struct {
	Kinds      []core.Kind
	Benchmarks []string
	// Improvement[b][k] is benchmark b's plain-DFP improvement (percent)
	// with predictor Kinds[k].
	Improvement [][]float64
}

// PredictorAblation swaps the paper's multiple-stream recognizer for the
// alternatives of package core under plain DFP (no safety valve), so the
// prediction quality differences are fully exposed.
func PredictorAblation(r *Runner) (PredictorAblationResult, error) {
	out := PredictorAblationResult{
		Kinds:      core.Kinds(),
		Benchmarks: []string{"microbenchmark", "lbm", "deepsjeng", "roms"},
	}
	cells := r.grid(out.Benchmarks, sim.Baseline)
	for _, name := range out.Benchmarks {
		for _, k := range out.Kinds {
			c := r.cell(name, sim.DFP)
			c.predictor = k
			cells = append(cells, c)
		}
	}
	res, err := r.simulate("ablation-predictor", cells)
	if err != nil {
		return out, err
	}
	bases, runs := res[:len(out.Benchmarks)], res[len(out.Benchmarks):]
	for b, base := range bases {
		row := make([]float64, len(out.Kinds))
		for k := range row {
			row[k] = stats.ImprovementPct(runs[b*len(row)+k].Cycles, base.Cycles)
		}
		out.Improvement = append(out.Improvement, row)
	}
	return out, nil
}

// String renders the comparison.
func (a PredictorAblationResult) String() string {
	header := []string{"benchmark"}
	for _, k := range a.Kinds {
		header = append(header, string(k))
	}
	t := &stats.Table{Header: header}
	for i, name := range a.Benchmarks {
		cells := []interface{}{name}
		for _, v := range a.Improvement[i] {
			cells = append(cells, fmt.Sprintf("%+.1f%%", v))
		}
		t.Add(cells...)
	}
	return "Ablation: predictor strategies under plain DFP\n" + t.String()
}

// EvictionAblationResult compares EPC victim-selection policies.
type EvictionAblationResult struct {
	Policies   []epc.Policy
	Benchmarks []string
	// Norm[b][p] is benchmark b's baseline-scheme execution time with
	// policy p, normalized to CLOCK.
	Norm [][]float64
}

// EvictionAblation replaces the driver's CLOCK second-chance eviction
// with FIFO, exact LRU, and random selection under the baseline scheme
// (no preloading, so only the eviction quality differs).
func EvictionAblation(r *Runner) (EvictionAblationResult, error) {
	out := EvictionAblationResult{
		Policies:   []epc.Policy{epc.PolicyClock, epc.PolicyLRU, epc.PolicyFIFO, epc.PolicyRandom},
		Benchmarks: []string{"deepsjeng", "mcf", "lbm"},
	}
	var cells []cell
	for _, name := range out.Benchmarks {
		for _, pol := range out.Policies {
			c := r.cell(name, sim.Baseline)
			c.policy = pol
			cells = append(cells, c)
		}
	}
	res, err := r.simulate("ablation-eviction", cells)
	if err != nil {
		return out, err
	}
	for range out.Benchmarks {
		var clock uint64
		row := make([]float64, 0, len(out.Policies))
		for p, pol := range out.Policies {
			if pol == epc.PolicyClock {
				clock = res[p].Cycles
			}
			row = append(row, stats.Normalized(res[p].Cycles, clock))
		}
		res = res[len(out.Policies):]
		out.Norm = append(out.Norm, row)
	}
	return out, nil
}

// String renders the comparison.
func (a EvictionAblationResult) String() string {
	header := []string{"benchmark"}
	for _, p := range a.Policies {
		header = append(header, p.String())
	}
	t := &stats.Table{Header: header}
	for i, name := range a.Benchmarks {
		cells := []interface{}{name}
		for _, v := range a.Norm[i] {
			cells = append(cells, v)
		}
		t.Add(cells...)
	}
	return "Ablation: eviction policy (baseline scheme, normalized to CLOCK)\n" + t.String()
}

// CostSensitivityResult varies the page-load cost.
type CostSensitivityResult struct {
	LoadCosts []uint64
	// Improvement[i] is lbm's DFP-stop improvement at LoadCosts[i];
	// FaultCost[i] the resulting per-fault total.
	Improvement []float64
	FaultCost   []uint64
}

// CostSensitivity re-runs lbm with the ELDU/ELDB cost halved and doubled.
// Related work (VAULT, Morphable Counters) shrinks exactly this constant
// by cheapening integrity verification; the sweep shows how much of the
// preloading win survives such hardware improvements.
func CostSensitivity(r *Runner) (CostSensitivityResult, error) {
	out := CostSensitivityResult{LoadCosts: []uint64{11000, 22000, 44000, 88000}}
	var cells []cell
	for _, load := range out.LoadCosts {
		for _, scheme := range []sim.Scheme{sim.Baseline, sim.DFPStop} {
			c := r.cell("lbm", scheme)
			c.costs.Load = load
			cells = append(cells, c)
		}
	}
	res, err := r.simulate("ablation-loadcost", cells)
	if err != nil {
		return out, err
	}
	for i := range out.LoadCosts {
		out.Improvement = append(out.Improvement, stats.ImprovementPct(res[2*i+1].Cycles, res[2*i].Cycles))
		out.FaultCost = append(out.FaultCost, cells[2*i].costs.FaultCost())
	}
	return out, nil
}

// String renders the sweep.
func (a CostSensitivityResult) String() string {
	t := &stats.Table{Header: []string{"loadCost", "faultCost", "lbm DFP-stop"}}
	for i, load := range a.LoadCosts {
		t.Add(load, a.FaultCost[i], fmt.Sprintf("%+.1f%%", a.Improvement[i]))
	}
	return "Ablation: page-load (ELDU) cost sensitivity\n" + t.String()
}

// SharedEPCResult is the §5.6 multi-enclave contention study.
type SharedEPCResult struct {
	// SoloCycles and SharedCycles are per-enclave times alone on the full
	// EPC versus co-running; names index both.
	Names        []string
	SoloCycles   []uint64
	SharedCycles []uint64
	// SharedPreloadCycles is the co-run with each enclave using its
	// suited preloading scheme.
	SharedPreloadCycles []uint64
}

// SharedEPC co-runs lbm and deepsjeng on one EPC: contention slows both,
// and per-enclave preloading still recovers part of the loss — the
// paper's §5.6 claim.
func SharedEPC(r *Runner) (SharedEPCResult, error) {
	out := SharedEPCResult{Names: []string{"lbm", "deepsjeng"}}
	cells := r.grid(out.Names, sim.Baseline)
	solos, err := r.simulate("ablation-shared", cells)
	if err != nil {
		return out, err
	}
	shared, err := r.arrivals(cells...)
	if err != nil {
		return out, err
	}
	// Co-run again with each enclave preloading: lbm uses DFP-stop,
	// deepsjeng uses SIP.
	preload, err := r.arrivals(r.cell("lbm", sim.DFPStop), r.cell("deepsjeng", sim.SIP))
	if err != nil {
		return out, err
	}
	coRun := fleet.Config{Hosts: 1, Platform: sim.SharedConfig{EPCPages: r.p.EPCPages}}
	co, err := r.fleets("ablation-shared", []*fleetCell{
		{label: "shared", arrivals: shared, cfg: coRun},
		{label: "shared+preload", arrivals: preload, cfg: coRun},
	})
	if err != nil {
		return out, err
	}
	for i := range out.Names {
		out.SoloCycles = append(out.SoloCycles, solos[i].Cycles)
		out.SharedCycles = append(out.SharedCycles, co[0].Hosts[0].Enclaves[i].Cycles)
		out.SharedPreloadCycles = append(out.SharedPreloadCycles, co[1].Hosts[0].Enclaves[i].Cycles)
	}
	return out, nil
}

// String renders the study.
func (a SharedEPCResult) String() string {
	t := &stats.Table{Header: []string{"enclave", "solo", "shared", "slowdown", "shared+preload", "recovered"}}
	for i, name := range a.Names {
		slow := stats.Normalized(a.SharedCycles[i], a.SoloCycles[i])
		rec := stats.ImprovementPct(a.SharedPreloadCycles[i], a.SharedCycles[i])
		t.Add(name, a.SoloCycles[i], a.SharedCycles[i],
			fmt.Sprintf("%.2fx", slow), a.SharedPreloadCycles[i], fmt.Sprintf("%+.1f%%", rec))
	}
	return "Ablation: multi-enclave EPC sharing (paper §5.6)\n" + t.String()
}

// BackwardStreamResult measures descending-stream recognition.
type BackwardStreamResult struct {
	ForwardOnlyImprovement  float64
	WithBackwardImprovement float64
}

// BackwardStreams runs a descending sweep (a reversed array traversal)
// with and without the predictor's backward-direction support — the
// direction operand Algorithm 1 carries but the paper's prototype leaves
// unexercised.
func BackwardStreams(r *Runner) (BackwardStreamResult, error) {
	var out BackwardStreamResult
	const pages = 6144
	trace := make([]mem.Access, 0, 2*pages)
	for pass := 0; pass < 2; pass++ {
		for i := pages - 1; i >= 0; i-- {
			trace = append(trace, mem.Access{Site: 1, Page: mem.PageID(i), Compute: 150000})
		}
	}
	// The synthetic trace is no registered workload, so these three runs
	// are direct rather than cells.
	res, err := sweep(r, "ablation-backward", []string{"baseline", "forward", "backward"},
		func(name string) (sim.Result, error) {
			enc := sim.Enclave{Name: name, Trace: trace, Pages: pages, Scheme: sim.DFP, DFP: r.p.DFP}
			enc.DFP.Backward = name == "backward"
			if name == "baseline" {
				enc.Scheme, enc.DFP = sim.Baseline, dfp.Config{}
			}
			return runAlone(enc, sim.SharedConfig{EPCPages: r.p.EPCPages})
		})
	if err != nil {
		return out, err
	}
	out.ForwardOnlyImprovement = stats.ImprovementPct(res[1].Cycles, res[0].Cycles)
	out.WithBackwardImprovement = stats.ImprovementPct(res[2].Cycles, res[0].Cycles)
	return out, nil
}

// String renders the study.
func (a BackwardStreamResult) String() string {
	return fmt.Sprintf(
		"Ablation: descending sweep\nforward-only recognizer: %+.1f%%\nwith backward streams:   %+.1f%%\n",
		a.ForwardOnlyImprovement, a.WithBackwardImprovement)
}

// ReclaimAblationResult compares synchronous eviction (the paper's model)
// against the real driver's ksgxswapd-style background reclaimer.
type ReclaimAblationResult struct {
	Benchmarks []string
	// SyncCycles and BackgroundCycles are baseline-scheme times; BgEvicts
	// counts the write-backs the reclaimer moved off the fault path.
	SyncCycles       []uint64
	BackgroundCycles []uint64
	BgEvicts         []uint64
}

// ReclaimAblation measures what keeping free-frame watermarks buys: the
// fault path skips its synchronous EWB when a free frame is available, at
// the price of periodic write-back bursts on the load channel.
func ReclaimAblation(r *Runner) (ReclaimAblationResult, error) {
	out := ReclaimAblationResult{Benchmarks: []string{"microbenchmark", "lbm", "deepsjeng"}}
	var cells []cell
	for _, name := range out.Benchmarks {
		c := r.cell(name, sim.Baseline)
		cells = append(cells, c)
		c.reclaim = true
		cells = append(cells, c)
	}
	res, err := r.simulate("ablation-reclaim", cells)
	if err != nil {
		return out, err
	}
	for i := range out.Benchmarks {
		sync, bg := res[2*i], res[2*i+1]
		out.SyncCycles = append(out.SyncCycles, sync.Cycles)
		out.BackgroundCycles = append(out.BackgroundCycles, bg.Cycles)
		out.BgEvicts = append(out.BgEvicts, bg.Kernel.BackgroundEvictions)
	}
	return out, nil
}

// String renders the comparison.
func (a ReclaimAblationResult) String() string {
	t := &stats.Table{Header: []string{"benchmark", "sync EWB", "background EWB", "delta", "bg evictions"}}
	for i, name := range a.Benchmarks {
		t.Add(name, a.SyncCycles[i], a.BackgroundCycles[i],
			fmt.Sprintf("%+.2f%%", stats.ImprovementPct(a.BackgroundCycles[i], a.SyncCycles[i])),
			a.BgEvicts[i])
	}
	return "Ablation: synchronous vs background (ksgxswapd) EWB reclaim\n" + t.String()
}

// EagerSIPResult measures the latency-hiding headroom of early preload
// notifications.
type EagerSIPResult struct {
	// Leads are the oracle's notification lead distances in accesses
	// (0 = the paper's conservative SIP: notify right before the access).
	Leads []int
	// Improvement[i] is deepsjeng's improvement over baseline with the
	// notification issued Leads[i] accesses early.
	Improvement []float64
}

// EagerSIP quantifies the §3.2 discussion behind Figure 4: the paper's
// SIP is conservative — it notifies immediately before the access, saving
// only AEX+ERESUME — because no real code region is long enough to hide
// the 44,000-cycle page load. This ablation plays the oracle: it inserts
// the notification a fixed number of accesses early and measures what a
// compiler that could find such lead time would win.
func EagerSIP(r *Runner) (EagerSIPResult, error) {
	out := EagerSIPResult{Leads: []int{0, 2, 8, 32}}
	cells := []cell{r.cell("deepsjeng", sim.Baseline)}
	for _, lead := range out.Leads {
		c := r.cell("deepsjeng", sim.SIP)
		c.lead = lead
		cells = append(cells, c)
	}
	res, err := r.simulate("ablation-eager", cells)
	if err != nil {
		return out, err
	}
	for _, eager := range res[1:] {
		out.Improvement = append(out.Improvement, stats.ImprovementPct(eager.Cycles, res[0].Cycles))
	}
	return out, nil
}

// insertPrefetches returns a copy of trace with an oracle prefetch for
// every instrumented-site access inserted lead accesses earlier.
func insertPrefetches(trace []mem.Access, sel *sip.Selection, lead int) []mem.Access {
	out := make([]mem.Access, 0, len(trace)*2)
	for i, acc := range trace {
		// Before emitting access i, emit prefetches for the instrumented
		// accesses that are lead positions ahead.
		if j := i + lead; j < len(trace) && sel.Instrumented(trace[j].Site) {
			out = append(out, mem.Access{Page: trace[j].Page, Prefetch: true})
		}
		out = append(out, acc)
		if i == 0 {
			// Cover the window the loop above cannot reach: the first
			// lead accesses' prefetches all fire here.
			for j := 1; j < lead && j < len(trace); j++ {
				if sel.Instrumented(trace[j].Site) {
					out = append(out, mem.Access{Page: trace[j].Page, Prefetch: true})
				}
			}
		}
	}
	return out
}

// String renders the sweep.
func (a EagerSIPResult) String() string {
	t := &stats.Table{Header: []string{"notify lead (accesses)", "deepsjeng SIP"}}
	for i, lead := range a.Leads {
		t.Add(lead, fmt.Sprintf("%+.1f%%", a.Improvement[i]))
	}
	return "Ablation: eager preload notification (oracle lead time, paper Figure 4)\n" + t.String()
}
