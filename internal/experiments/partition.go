package experiments

import (
	"fmt"
	"math"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/stats"
	"sgxpreload/internal/workload"
)

// The EPC-partition study: the same hog-skewed co-run under each quota
// policy of the per-enclave arbiter (package epc/arbiter). An lbm hog —
// a footprint several times the EPC — co-runs with three small
// benchmarks on one shared EPC. Under the Global policy the hog's fault
// storm drives the victim scan over everyone's frames, so the small
// enclaves' working sets are perpetually evicted out from under them:
// they are starved by a neighbor they cannot influence. Quota policies
// bound the hog instead — an over-quota enclave evicts its own frames —
// and the adaptive policy additionally moves frames toward measured
// working sets at scan boundaries. The comparison to make is the small
// enclaves' fault columns: same work, same EPC, different arbitration.

// partitionGrid is the co-run population: the hog first, smalls after,
// so the hog holds the EPC before the smalls fault their sets in.
var partitionGrid = []string{"lbm", "leela", "nab", "exchange2"}

// partitionEPC is the study's EPC size. Deliberately tighter than the
// default platform: the starvation regime needs the hog's footprint to
// dwarf the EPC and the smalls' working sets to just fit, so that the
// global scan's evictions land on the smalls and a quota visibly
// protects them.
const partitionEPC = 1024

// PartitionResult holds one co-run per quota policy.
type PartitionResult struct {
	Names    []string
	Policies []arbiter.Policy
	// Results[p][e] is enclave e's outcome under policy p.
	Results [][]sim.SharedResult
	// FaultP99[p][e] is enclave e's fault-service p99 in cycles under
	// policy p (NaN when the enclave took no faults), attributed from
	// the shared timeline by the enclave's slice of the page space.
	FaultP99 [][]float64
	// Quotas[p][e] is enclave e's final quota under policy p (0 under
	// Global, which has no quotas).
	Quotas [][]int
}

// EPCPartition runs the grid under every quota policy.
func EPCPartition(r *Runner) (PartitionResult, error) {
	out := PartitionResult{Names: partitionGrid, Policies: arbiter.Policies()}
	var encs []sim.Enclave
	var bounds []uint64 // cumulative page-space bounds, one per enclave
	total := uint64(0)
	for _, name := range partitionGrid {
		w, err := workload.ByName(name)
		if err != nil {
			return out, err
		}
		encs = append(encs, sim.Enclave{
			Name:   name,
			Trace:  r.Trace(w, workload.Ref),
			Pages:  w.ELRangePages(),
			Scheme: sim.DFPStop,
		})
		total += w.ELRangePages()
		bounds = append(bounds, total)
	}
	for _, q := range out.Policies {
		rec := obs.NewRecorder()
		res, err := sim.RunShared(encs, sim.SharedConfig{
			EPCPages: partitionEPC,
			Quota:    q,
			Hook:     rec,
		})
		if err != nil {
			return out, fmt.Errorf("epc-partition/%s: %w", q, err)
		}
		out.Results = append(out.Results, res)
		out.FaultP99 = append(out.FaultP99, faultP99ByEnclave(rec.Events(), bounds))
		quotas := make([]int, len(encs))
		if q != arbiter.Global {
			for _, s := range obs.BuildReport(rec.Events()).Quota {
				if int(s.Enclave) < len(quotas) {
					quotas[s.Enclave] = int(s.Quota)
				}
			}
		}
		out.Quotas = append(out.Quotas, quotas)
	}
	return out, nil
}

// faultP99ByEnclave attributes every KindFaultEnd to the enclave whose
// slice of the shared page space holds the faulting page (ascending
// exclusive bounds, the engine's admission-order layout) and returns
// each enclave's fault-latency p99.
func faultP99ByEnclave(events []obs.Event, bounds []uint64) []float64 {
	samples := make([][]float64, len(bounds))
	for _, e := range events {
		if e.Kind != obs.KindFaultEnd || e.Page == mem.NoPage {
			continue
		}
		for i, hi := range bounds {
			if uint64(e.Page) < hi {
				samples[i] = append(samples[i], float64(e.V1))
				break
			}
		}
	}
	out := make([]float64, len(bounds))
	for i, s := range samples {
		out[i] = stats.Percentile(s, 99)
	}
	return out
}

// StarvedP99 returns the worst small-enclave (non-hog) fault p99 under
// the given policy — the starvation figure the study compares.
func (a PartitionResult) StarvedP99(p arbiter.Policy) float64 {
	for pi, q := range a.Policies {
		if q != p {
			continue
		}
		worst := math.NaN()
		for e := 1; e < len(a.Names); e++ { // index 0 is the hog
			v := a.FaultP99[pi][e]
			if !math.IsNaN(v) && (math.IsNaN(worst) || v > worst) {
				worst = v
			}
		}
		return worst
	}
	return math.NaN()
}

// String renders the study: one row per (policy, enclave) with the
// enclave's cycles, faults, final quota, and fault p99.
func (a PartitionResult) String() string {
	t := &stats.Table{Header: []string{"quota", "enclave", "cycles", "faults", "frames", "fault-p99"}}
	for pi, q := range a.Policies {
		for e, res := range a.Results[pi] {
			frames := "-"
			if q != arbiter.Global {
				frames = fmt.Sprint(a.Quotas[pi][e])
			}
			t.Add(q.String(), res.Name, res.Cycles, res.Kernel.DemandFaults,
				frames, fleetCyc(a.FaultP99[pi][e]))
		}
	}
	return fmt.Sprintf("EPC partitioning: %s hog vs %v on one %s-policy EPC\n",
		a.Names[0], a.Names[1:], "per-enclave quota") + t.String() +
		fmt.Sprintf("worst small-enclave fault p99: global %s, adaptive %s\n",
			fleetCyc(a.StarvedP99(arbiter.Global)), fleetCyc(a.StarvedP99(arbiter.Adaptive)))
}
