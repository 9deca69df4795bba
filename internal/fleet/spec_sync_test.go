package fleet_test

import (
	"testing"

	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
	"sgxpreload/internal/workload/spec"
)

// benchFleetSpec is the two-cohort spec the benchmark's fleet workload
// runs: 17 launches of six workload keys over 24×10⁹ cycles.
const benchFleetSpec = `{
  "name": "bench-fleet",
  "seed": 8,
  "horizon_cycles": 24000000000,
  "cohorts": [
    {
      "name": "interactive",
      "arrival": {"process": "poisson", "mean_interval_cycles": 2000000000},
      "mix": [
        {"workload": "leela", "weight": 1},
        {"workload": "nab", "weight": 1},
        {"workload": "exchange2", "weight": 1}
      ]
    },
    {
      "name": "batch",
      "arrival": {"process": "gamma", "mean_interval_cycles": 2000000000, "cv": 2},
      "envelope": [
        {"cycles": 4000000000, "scale": 1.5},
        {"cycles": 4000000000, "scale": 0.5}
      ],
      "mix": [
        {"workload": "lbm", "weight": 1},
        {"workload": "deepsjeng", "weight": 1},
        {"workload": "MSER", "weight": 1}
      ],
      "phase_shift_pages": 512,
      "drift_period_accesses": 4000,
      "scheme": "hybrid"
    }
  ]
}`

// TestBenchSpecSyncs: on two affinity hosts the benchmark's spec settles
// every host six times, once per workload key's first launch.
// Placement reads only arrival names, so capping each launch's stream
// leaves the count as it is.
func TestBenchSpecSyncs(t *testing.T) {
	s, err := spec.Parse([]byte(benchFleetSpec))
	if err != nil {
		t.Fatal(err)
	}
	arrivals, _, err := spec.Compile(s, spec.Options{Scheme: sim.DFPStop,
		Selection: func(*workload.Workload) (*sip.Selection, error) { return &sip.Selection{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 17 {
		fleet.CloseArrivals(arrivals)
		t.Fatalf("spec compiled to %d launches, want 17", len(arrivals))
	}
	for i := range arrivals {
		arrivals[i].Enclave.Stream = mem.Limit(arrivals[i].Enclave.Stream, 2000)
	}
	syncs := fleet.CountSyncs(func() {
		if _, err := fleet.Run(arrivals, fleet.Config{Hosts: 2, Policy: fleet.Affinity,
			Platform: sim.SharedConfig{EPCPages: 4096}, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	})
	if syncs != 6 {
		t.Errorf("bench spec settled the hosts %d times, want 6", syncs)
	}
}
