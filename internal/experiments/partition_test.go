package experiments

import (
	"math"
	"strings"
	"testing"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/fleet"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sim"
)

// TestEPCPartition pins the study's headline: on the hog-skew grid,
// adaptive partitioning reduces the starved enclave's fault p99 below
// global CLOCK's — the quota bounds the hog's theft, so the smalls'
// faults stop queueing behind its storm.
func TestEPCPartition(t *testing.T) {
	a, err := EPCPartition(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(a.Policies) || len(a.Policies) != 4 {
		t.Fatalf("got %d results for %d policies, want 4", len(a.Results), len(a.Policies))
	}
	for pi, q := range a.Policies {
		if len(a.Results[pi]) != len(a.Names) {
			t.Fatalf("quota %v: %d enclave results, want %d", q, len(a.Results[pi]), len(a.Names))
		}
		for e, res := range a.Results[pi] {
			if res.Accesses == 0 || res.Hits+res.Kernel.DemandFaults != res.Accesses {
				t.Errorf("quota %v enclave %s: conservation violated", q, res.Name)
			}
			quota := a.Quotas[pi][e]
			if q == arbiter.Global && quota != 0 {
				t.Errorf("Global policy recorded quota %d for %s", quota, res.Name)
			}
			if q != arbiter.Global && quota < 1 {
				t.Errorf("quota %v enclave %s: final quota %d below the floor", q, res.Name, quota)
			}
		}
	}

	globalP99 := a.StarvedP99(arbiter.Global)
	adaptiveP99 := a.StarvedP99(arbiter.Adaptive)
	if math.IsNaN(globalP99) || math.IsNaN(adaptiveP99) {
		t.Fatalf("starved p99 undefined: global %v, adaptive %v (the grid must fault)", globalP99, adaptiveP99)
	}
	if !(adaptiveP99 < globalP99) {
		t.Errorf("adaptive starved-enclave p99 %.0f is not below global CLOCK's %.0f", adaptiveP99, globalP99)
	}

	out := a.String()
	for _, want := range []string{"quota", "fault-p99", "global", "adaptive", "lbm", "worst small-enclave"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestEnclaveLatencyAttribution checks the one copy of the shared page
// layout outside package sim: enclaveLatencies attributes a fault_end to
// an enclave by assuming consecutive page ranges in admission order.
// Under every quota policy, on the study's grid, each enclave's sampled
// fault count must equal its kernel's DemandFaults, and every fault_end
// the host emits must be attributed to some enclave.
func TestEnclaveLatencyAttribution(t *testing.T) {
	arrivals, err := sharedRunner.arrivals(sharedRunner.grid(partitionGrid, sim.DFPStop)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range arbiter.Policies() {
		lat := &enclaveLatencies{arrivals: arrivals}
		for range arrivals {
			lat.byEnclave = append(lat.byEnclave, obs.NewFaultLatencySampler())
		}
		all := obs.NewFaultLatencySampler()
		res, err := fleet.Run(arrivals, fleet.Config{Hosts: 1,
			Platform: sim.SharedConfig{EPCPages: partitionEPC, Quota: q, Hook: obs.Tee(lat, all)}})
		if err != nil {
			t.Fatal(err)
		}
		attributed := 0
		for e, r := range res.Hosts[0].Enclaves {
			n := lat.byEnclave[e].Count()
			attributed += n
			if uint64(n) != r.Kernel.DemandFaults {
				t.Errorf("quota %v enclave %s: %d faults sampled, kernel counts %d", q, r.Name, n, r.Kernel.DemandFaults)
			}
		}
		if attributed != all.Count() || attributed == 0 {
			t.Errorf("quota %v: %d of %d fault_end events attributed", q, attributed, all.Count())
		}
	}
}
