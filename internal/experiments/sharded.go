package experiments

import (
	"fmt"

	"sgxpreload/internal/fleet"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/stats"
)

// The sharded-fleet study: the same enclave population simulated over a
// varying number of independent EPC domains. One shard is the paper's
// §5.6 regime taken to fleet scale — every enclave contending for one
// physical EPC; at shards == enclaves every enclave runs isolated, the
// solo reference. The settings in between are what a multi-host
// deployment looks like, and the sweep quantifies how much of the
// contention slowdown each added EPC domain buys back. Each setting is
// a static fleet cell — every launch at t = 0 and RoundRobin placement —
// and the four cells run on the runner's worker pool; the table is
// byte-identical at any parallelism.

// shardedFleetBenches is the fleet's composition: two regular, one
// irregular, one fault-dominated benchmark, replicated twice — eight
// enclaves with heterogeneous footprints and access patterns.
var shardedFleetBenches = []string{
	"lbm", "deepsjeng", "mcf", "microbenchmark",
	"lbm", "deepsjeng", "mcf", "microbenchmark",
}

// ShardedFleetResult holds per-enclave cycles at each shard setting,
// re-ordered back to fleet (arrival) order so settings are comparable
// row by row.
type ShardedFleetResult struct {
	Names  []string   // enclave names in fleet order
	Shards []int      // shard settings swept
	Cycles [][]uint64 // [setting][enclave in fleet order]
	Faults []uint64   // [setting] total demand faults
}

// ShardedFleet sweeps the eight-enclave fleet over 1, 2, 4, and 8 EPC
// domains. Each domain has the runner's EPCPages frames and every
// enclave runs DFP-stop.
func ShardedFleet(r *Runner) (ShardedFleetResult, error) {
	out := ShardedFleetResult{Shards: []int{1, 2, 4, 8}}
	arrivals, err := r.arrivals(r.grid(shardedFleetBenches, sim.DFPStop)...)
	if err != nil {
		return out, err
	}
	for i := range arrivals {
		arrivals[i].Enclave.Name = fmt.Sprintf("%s/%d", shardedFleetBenches[i], i/4)
		out.Names = append(out.Names, arrivals[i].Enclave.Name)
	}
	cells := make([]*fleetCell, len(out.Shards))
	for si, shards := range out.Shards {
		cells[si] = &fleetCell{label: fmt.Sprint(shards), arrivals: arrivals, cfg: fleet.Config{
			Hosts:    shards,
			Policy:   fleet.RoundRobin,
			Platform: sim.SharedConfig{EPCPages: r.p.EPCPages},
		}}
	}
	results, err := r.fleets("fleet-sharded", cells)
	if err != nil {
		return out, err
	}
	for si, res := range results {
		// Hosts list their enclaves in admission order; walking the
		// placement maps every result back to its fleet index.
		cycles := make([]uint64, len(arrivals))
		admitted := make([]int, out.Shards[si])
		var faults uint64
		for i, h := range res.Placement {
			er := res.Hosts[h].Enclaves[admitted[h]]
			admitted[h]++
			cycles[i] = er.Cycles
			faults += er.Kernel.DemandFaults
		}
		out.Cycles = append(out.Cycles, cycles)
		out.Faults = append(out.Faults, faults)
	}
	return out, nil
}

// String renders the sweep: per shard setting, the fleet's total and
// worst per-enclave slowdown versus the fully isolated run (shards ==
// enclaves), plus total demand faults.
func (a ShardedFleetResult) String() string {
	t := &stats.Table{Header: []string{"shards", "sum cycles", "mean slowdown", "max slowdown", "faults"}}
	iso := a.Cycles[len(a.Cycles)-1] // shards == enclaves: every enclave isolated
	for si, shards := range a.Shards {
		var sum uint64
		var worst, mean float64
		for i, c := range a.Cycles[si] {
			sum += c
			slow := stats.Normalized(c, iso[i])
			mean += slow
			if slow > worst {
				worst = slow
			}
		}
		mean /= float64(len(iso))
		t.Add(shards, sum, fmt.Sprintf("%.2fx", mean), fmt.Sprintf("%.2fx", worst), a.Faults[si])
	}
	return fmt.Sprintf("Fleet: %d enclaves over independent EPC domains (t=0 round-robin fleet)\n", len(a.Names)) +
		t.String()
}
