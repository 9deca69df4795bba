package experiments

import (
	"fmt"
	"math"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/fleet"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/stats"
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
	// policy p (NaN when the enclave took no faults), attributed by the
	// enclave's slice of the shared page space.
	FaultP99 [][]float64
	// Quotas[p][e] is enclave e's final quota under policy p (0 under
	// Global, which has no quotas).
	Quotas [][]int
}

// EPCPartition runs the grid under every quota policy, one co-run cell
// per policy on the runner's worker pool.
func EPCPartition(r *Runner) (PartitionResult, error) {
	out := PartitionResult{Names: partitionGrid, Policies: arbiter.Policies()}
	arrivals, err := r.arrivals(r.grid(partitionGrid, sim.DFPStop)...)
	if err != nil {
		return out, err
	}
	cells := make([]*fleetCell, len(out.Policies))
	hooks := make([]*enclaveLatencies, len(out.Policies))
	for i, q := range out.Policies {
		hooks[i] = &enclaveLatencies{arrivals: arrivals}
		for range arrivals {
			hooks[i].byEnclave = append(hooks[i].byEnclave, obs.NewFaultLatencySampler())
		}
		cells[i] = &fleetCell{label: q.String(), arrivals: arrivals, cfg: fleet.Config{
			Hosts:    1,
			Platform: sim.SharedConfig{EPCPages: partitionEPC, Quota: q, Hook: hooks[i]},
		}}
	}
	results, err := r.fleets("epc-partition", cells)
	if err != nil {
		return out, err
	}
	for i, res := range results {
		host := res.Hosts[0]
		out.Results = append(out.Results, host.Enclaves)
		p99 := make([]float64, len(arrivals))
		for e, s := range hooks[i].byEnclave {
			p99[e] = s.Percentile(99)
		}
		out.FaultP99 = append(out.FaultP99, p99)
		quotas := host.Quota
		if quotas == nil { // Global: no quotas
			quotas = make([]int, len(arrivals))
		}
		out.Quotas = append(out.Quotas, quotas)
	}
	return out, nil
}

// enclaveLatencies is a Hook that samples each enclave's fault-service
// latencies in a t = 0 co-run of arrivals. Enclaves own consecutive page
// ranges in admission order, and a fault_end goes to the enclave whose
// range holds its page (mem.NoPage lies past every range).
type enclaveLatencies struct {
	arrivals  []fleet.Arrival
	byEnclave []*obs.FaultLatencySampler
}

// Emit implements obs.Hook.
func (h *enclaveLatencies) Emit(e obs.Event) {
	if e.Kind != obs.KindFaultEnd {
		return
	}
	var hi uint64
	for i, a := range h.arrivals {
		if hi += a.Enclave.Pages; uint64(e.Page) < hi {
			h.byEnclave[i].Emit(e)
			return
		}
	}
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
