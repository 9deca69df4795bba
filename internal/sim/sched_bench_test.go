package sim

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
)

// Scale benchmarks for the event-heap scheduler: per-access cost with
// thousands of runnable enclaves. The fleet is hit-dominated on
// purpose — every access still pays the full scheduling path (heap
// re-key, kernel sync, EPC touch), but fault service does not drown
// out the scheduler, which is what these benchmarks exist to measure.
// BENCH_engine.json records the numbers; 100 ns/op is 10M
// accesses/sec aggregate per core.

// benchFleetStream is an unbounded per-enclave access generator:
// a sequential sweep over the enclave's pages with per-access compute
// jitter so enclave clocks drift apart and re-collide like a real
// population's.
func benchFleetStream(pages, seed uint64) mem.Stream {
	i := seed
	p := seed % pages
	return mem.StreamFunc(func() (mem.Access, bool) {
		i++
		if p++; p == pages {
			p = 0
		}
		return mem.Access{
			Site:    1,
			Page:    mem.PageID(p),
			Compute: 1000 + (i*2654435761)&511,
		}, true
	})
}

// benchPages is each benchmark enclave's footprint.
const benchPages = 32

// benchFleetEngine builds an e-enclave engine over an EPC of epcPages
// frames under the given quota policy and warms it with two sweeps of
// every enclave's pages.
func benchFleetEngine(b *testing.B, e, epcPages int, quota arbiter.Policy) *Engine {
	b.Helper()
	encs := make([]Enclave, e)
	for i := range encs {
		encs[i] = Enclave{
			Name:   fmt.Sprintf("enc%d", i),
			Stream: benchFleetStream(benchPages, uint64(i)*7919),
			Pages:  benchPages,
			Scheme: Baseline,
		}
	}
	eng, err := New(encs, SharedConfig{EPCPages: epcPages, Quota: quota})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2*e*benchPages; i++ { // cold sweep: fault every page in
		if _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// benchShardedStep runs a fleet of e enclaves split round-robin over
// the given number of independent EPC domains — the sharded runner's
// shape. Each parallel worker claims one shard engine and steps it, so
// ns/op is the fleet's aggregate per-access cost across however many
// cores the host gives the benchmark. Shards are sized to keep each
// domain's scheduler state inside cache: that, not the O(log E) sift,
// is what per-step cost tracks once E passes a few hundred.
func benchShardedStep(b *testing.B, e, shards int) {
	engines := make([]*Engine, shards)
	for s := range engines {
		n := e / shards
		if s < e%shards {
			n++
		}
		// The footprint fits the EPC: after the cold sweep the run is
		// hit-dominated.
		engines[s] = benchFleetEngine(b, n, n*benchPages+64, arbiter.Global)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		eng := engines[int(next.Add(1)-1)%shards]
		for pb.Next() {
			if _, err := eng.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchQuotaStep runs e enclaves on one EPC under the adaptive quota
// policy with the EPC oversubscribed: each enclave sweeps 32 pages
// against an even share of 24 frames, so accesses keep faulting and every
// eviction goes through the arbiter and an owned victim scan, and every
// service scan feeds the arbiter an owner's access-bit count.
func benchQuotaStep(b *testing.B, e int) {
	eng := benchFleetEngine(b, e, e*24, arbiter.Adaptive)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStep measures one engine access at fleet population sizes —
// the scheduler's O(log E) claim made falsifiable. Both sharded
// populations run 16 and 160 domains of ~62 enclaves each, mirroring how
// RunSharded actually deploys a fleet this size. The adaptive cells run
// one oversubscribed EPC domain under quotas, where per-step cost also
// includes arbitration and owner-scoped scans.
func BenchmarkStep(b *testing.B) {
	b.Run("E=1000-sharded16", func(b *testing.B) { benchShardedStep(b, 1000, 16) })
	b.Run("E=10000-sharded160", func(b *testing.B) { benchShardedStep(b, 10000, 160) })
	for _, e := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("E=%d-adaptive", e), func(b *testing.B) { benchQuotaStep(b, e) })
	}
}
