package experiments

import (
	"fmt"
	"math"

	"sgxpreload/internal/fleet"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/stats"
)

// The fleet-policies study: the same skewed arrival stream placed by
// each of the fleet layer's policies. The population interleaves EPC
// hogs (lbm, a footprint several times one host's EPC) with small
// benchmarks, and the hogs arrive at indices 0, 4, 8 of a four-host
// fleet — the adversarial alignment for round-robin, which places
// launch i on host i mod 4 and therefore stacks every hog on host 0.
// Load-aware placement reads the hosts' live signals at each arrival
// barrier instead: pressure-aware sees host 0's EPC occupancy climb
// after the first hog and routes the later hogs to idle hosts, so the
// tail of the fault-service latency distribution — the faults queued
// behind a thrashing host's load channel — collapses. The comparison
// to make is the p99 column: same work, same arrival times, different
// placement.

// fleetPolicyArrivals is the arrival order: a hog leading every group
// of four, smalls filling the gaps.
var fleetPolicyArrivals = []string{
	"lbm", "leela", "exchange2", "nab",
	"lbm", "leela", "exchange2", "nab",
	"lbm", "leela", "exchange2", "nab",
}

const (
	fleetPolicyHosts = 4
	// fleetArrivalPeriod spaces launches far enough apart that a hog's
	// EPC occupancy is visible at the next arrival barrier, but close
	// enough that the hogs' runs overlap — the contention the policies
	// must navigate.
	fleetArrivalPeriod = 2_000_000
)

// FleetPoliciesResult holds one fleet.Result per placement policy.
type FleetPoliciesResult struct {
	Hosts    int
	Arrivals []string
	Policies []fleet.Policy
	Results  []fleet.Result
}

// FleetPolicies runs the arrival stream under every placement policy,
// one fleet cell per policy on the runner's worker pool.
func FleetPolicies(r *Runner) (FleetPoliciesResult, error) {
	out := FleetPoliciesResult{
		Hosts:    fleetPolicyHosts,
		Arrivals: fleetPolicyArrivals,
		Policies: fleet.Policies(),
	}
	arrivals, err := r.arrivals(r.grid(fleetPolicyArrivals, sim.DFPStop)...)
	if err != nil {
		return out, err
	}
	for i := range arrivals {
		arrivals[i].At = uint64(i) * fleetArrivalPeriod
		arrivals[i].Enclave.Name = fmt.Sprintf("%s/%d", fleetPolicyArrivals[i], i)
	}
	cells := make([]*fleetCell, len(out.Policies))
	for i, policy := range out.Policies {
		cells[i] = &fleetCell{label: policy.String(), arrivals: arrivals, cfg: fleet.Config{
			Hosts:    fleetPolicyHosts,
			Policy:   policy,
			Platform: sim.SharedConfig{EPCPages: r.p.EPCPages},
		}}
	}
	out.Results, err = r.fleets("fleet-policies", cells)
	return out, err
}

// hogSpread counts the distinct hosts the hogs (lbm launches) landed on.
func (a FleetPoliciesResult) hogSpread(res fleet.Result) int {
	hosts := map[int]bool{}
	for i, name := range a.Arrivals {
		if name == "lbm" && res.Placement[i] >= 0 {
			hosts[res.Placement[i]] = true
		}
	}
	return len(hosts)
}

// String renders the policy comparison: fleet-wide fault-latency
// percentiles and the hog placement spread per policy.
func (a FleetPoliciesResult) String() string {
	t := &stats.Table{Header: []string{"policy", "hog hosts", "faults", "p50", "p95", "p99"}}
	for i, res := range a.Results {
		t.Add(a.Policies[i].String(), a.hogSpread(res), res.Faults,
			fleetCyc(res.FaultP50), fleetCyc(res.FaultP95), fleetCyc(res.FaultP99))
	}
	return fmt.Sprintf("Fleet placement policies: %d launches over %d hosts, one hog per group of four\n",
		len(a.Arrivals), a.Hosts) + t.String()
}

// fleetCyc renders a latency percentile, "-" when no faults occurred.
func fleetCyc(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}
