package fleet

import (
	"fmt"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
)

// staggered builds n launches of four workload keys ("w<k>/<i>"), two
// per timestamp every period cycles, each over a small working set.
func staggered(n, accesses int, period uint64) []Arrival {
	out := make([]Arrival, n)
	for i := range out {
		trace := make([]mem.Access, accesses)
		for j := range trace {
			trace[j] = mem.Access{Page: mem.PageID((j * 5) % 32), Compute: 100}
		}
		out[i] = Arrival{At: uint64(i/2) * period, Enclave: sim.Enclave{
			Name: fmt.Sprintf("w%d/%d", i%4, i), Trace: trace, Pages: 32, Scheme: sim.DFPStop}}
	}
	return out
}

// TestSyncCounts pins how often Run settles every host before a
// placement: never for round-robin or on one host, once per first
// launch of a workload key for affinity, once per admitted launch for
// least-loaded and pressure-aware — with and without shedding.
func TestSyncCounts(t *testing.T) {
	for hosts := 1; hosts <= 4; hosts++ {
		for _, policy := range Policies() {
			for _, period := range []uint64{0, 90_000} {
				var res Result
				syncs := CountSyncs(func() {
					var err error
					res, err = Run(staggered(16, 200, 50_000), Config{Hosts: hosts, Policy: policy,
						Platform: sim.SharedConfig{EPCPages: 64}, AdmitPeriod: period, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
				})
				admitted, firsts := 0, 0
				seen := map[string]bool{}
				for i, h := range res.Placement {
					if h < 0 {
						continue
					}
					admitted++
					if key := fmt.Sprintf("w%d", i%4); !seen[key] {
						seen[key] = true
						firsts++
					}
				}
				want := 0
				switch {
				case hosts == 1 || policy == RoundRobin:
				case policy == Affinity:
					want = firsts
				default:
					want = admitted
				}
				if period > 0 && admitted == len(res.Placement) {
					t.Fatalf("H=%d %s: the bucket shed nothing", hosts, policy)
				}
				if syncs != want {
					t.Errorf("H=%d %s admit-period=%d: %d syncs, want %d (%d admitted, %d first launches)",
						hosts, policy, period, syncs, want, admitted, firsts)
				}
			}
		}
	}
}

// BenchmarkFleetRun runs staggered small-working-set launches on two
// hosts. Round-robin never settles the hosts before the final drain and
// affinity settles them four times, so the workers=1 vs workers=2 gap
// is the parallelism between synchronizations.
func BenchmarkFleetRun(b *testing.B) {
	arrivals := staggered(16, 20_000, 1_000_000)
	for _, policy := range []Policy{Affinity, RoundRobin} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", policy, workers), func(b *testing.B) {
				cfg := Config{Hosts: 2, Policy: policy, Platform: sim.SharedConfig{EPCPages: 256}, Workers: workers}
				for i := 0; i < b.N; i++ {
					if _, err := Run(arrivals, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
