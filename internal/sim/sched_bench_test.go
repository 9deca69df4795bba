package sim

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/workload"
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
// every enclave's pages. A nonzero limit caps each enclave's stream at
// that many accesses, warm-up included.
func benchFleetEngine(b *testing.B, e, epcPages int, quota arbiter.Policy, limit uint64) *Engine {
	b.Helper()
	encs := make([]Enclave, e)
	for i := range encs {
		src := benchFleetStream(benchPages, uint64(i)*7919)
		if limit > 0 {
			src = mem.Limit(src, limit)
		}
		encs[i] = Enclave{
			Name:   fmt.Sprintf("enc%d", i),
			Stream: src,
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

// benchStaticFleetStep runs a fleet of e enclaves split round-robin over
// the given number of independent EPC domains — the shape of a static
// (t=0 round-robin) fleet. Each parallel worker claims one domain's
// engine and steps it, so ns/op is the fleet's aggregate per-access cost
// across however many cores the host gives the benchmark. Domains are
// sized to keep each one's scheduler state inside cache: that, not the
// O(log E) sift, is what per-step cost tracks once E passes a few
// hundred.
func benchStaticFleetStep(b *testing.B, e, domains int) {
	engines := make([]*Engine, domains)
	for s := range engines {
		n := e / domains
		if s < e%domains {
			n++
		}
		// The footprint fits the EPC: after the cold sweep the run is
		// hit-dominated.
		engines[s] = benchFleetEngine(b, n, n*benchPages+64, arbiter.Global, 0)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		eng := engines[int(next.Add(1)-1)%domains]
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
	eng := benchFleetEngine(b, e, e*24, arbiter.Adaptive, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStep measures one engine access at fleet population sizes —
// the scheduler's O(log E) claim made falsifiable. The two static-fleet
// cells run 16 and 160 domains of ~62 enclaves each, mirroring how a
// static fleet.Run deploys a population this size. The adaptive cells run
// one oversubscribed EPC domain under quotas, where per-step cost also
// includes arbitration and owner-scoped scans.
func BenchmarkStep(b *testing.B) {
	b.Run("E=1000-staticfleet16", func(b *testing.B) { benchStaticFleetStep(b, 1000, 16) })
	b.Run("E=10000-staticfleet160", func(b *testing.B) { benchStaticFleetStep(b, 10000, 160) })
	for _, e := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("E=%d-adaptive", e), func(b *testing.B) { benchQuotaStep(b, e) })
	}
}

// benchDrain drains e enclaves over an EPC of epcPages frames under the
// given quota policy, each stream capped so that about b.N accesses
// remain after the warm-up: ns/op is the cost of one access driven by
// Drain's bursts rather than by Step.
func benchDrain(b *testing.B, e, epcPages int, quota arbiter.Policy) {
	perEnclave := (uint64(b.N) + uint64(e) - 1) / uint64(e)
	eng := benchFleetEngine(b, e, epcPages, quota, 2*benchPages+perEnclave)
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.Drain(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDrain measures one access under Drain: a solo enclave whose
// pages fit the EPC, so every access after the warm-up hits and the run
// is one burst, and the 16-enclave oversubscribed adaptive cohort of
// BenchmarkStep, whose bursts are short and whose accesses keep faulting.
func BenchmarkDrain(b *testing.B) {
	b.Run("E=1-hits", func(b *testing.B) { benchDrain(b, 1, benchPages+64, arbiter.Global) })
	b.Run("E=16-adaptive", func(b *testing.B) { benchDrain(b, 16, 16*24, arbiter.Adaptive) })
}

// BenchmarkDrainSource measures one access of a fault-heavy solo run
// (lbm's Ref trace under DFP on the paper's 2048-frame EPC, one fault
// in five accesses, as in bench's solo-faults) under Drain, fed as a
// materialized trace the engine reads in chunks (slice) and through the
// same slice stream with its Chunk method hidden (next-only). The
// difference is the per-access cost of pulling through Next.
func BenchmarkDrainSource(b *testing.B) {
	w, err := workload.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	tr := w.Generate(workload.Ref)
	feeds := []struct {
		name string
		enc  func(tr []mem.Access) Enclave
	}{
		{"slice", func(tr []mem.Access) Enclave { return Enclave{Trace: tr} }},
		{"next-only", func(tr []mem.Access) Enclave { return Enclave{Stream: nextOnly{mem.SliceStream(tr)}} }},
	}
	for _, f := range feeds {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			// One engine per pass over the trace; building it is not
			// timed.
			for left := b.N; left > 0; left -= len(tr) {
				b.StopTimer()
				enc := f.enc(tr[:min(left, len(tr))])
				enc.Name, enc.Pages, enc.Scheme = w.Name, w.ELRangePages(), DFP
				eng, err := New([]Enclave{enc}, SharedConfig{EPCPages: 2048})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := eng.Drain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
