package obs

import (
	"math"
	"math/rand/v2"
	"testing"

	"sgxpreload/internal/stats"
)

// sampled feeds latencies through a sampler as fault-end events, among
// other kinds the sampler must ignore.
func sampled(latencies []uint64) *FaultLatencySampler {
	s := NewFaultLatencySampler()
	for i, v := range latencies {
		s.Emit(Event{T: uint64(i), Kind: KindFaultBegin, V1: v + 7})
		s.Emit(Event{T: uint64(i), Kind: KindFaultEnd, V1: v})
	}
	return s
}

// TestFaultLatencyPercentileMatchesStats is the histogram's property:
// at every percentile, including the extremes and off-grid ranks, the
// sampler returns stats.Percentile over the raw samples bit for bit —
// on random sets, duplicate-heavy sets, a single sample, and no samples.
func TestFaultLatencyPercentileMatchesStats(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 17))
	var sets [][]uint64
	for _, n := range []int{2, 3, 10, 101, 1000, 5000} {
		wide := make([]uint64, n)
		dup := make([]uint64, n)
		for i := range wide {
			wide[i] = 1000 + r.Uint64N(2_000_000)
			dup[i] = 40_000 + 1000*r.Uint64N(4) // four distinct values
		}
		sets = append(sets, wide, dup)
	}
	sets = append(sets, []uint64{42_000}, nil)

	ps := []float64{0, 1, 25, 50, 90, 95, 99, 99.9, 100, -5, 150}
	for k := 0; k < 20; k++ {
		ps = append(ps, 100*r.Float64())
	}
	for si, set := range sets {
		raw := make([]float64, len(set))
		for i, v := range set {
			raw[i] = float64(v)
		}
		s := sampled(set)
		if s.Count() != len(set) {
			t.Fatalf("set %d: Count %d, want %d", si, s.Count(), len(set))
		}
		for _, p := range ps {
			got, want := s.Percentile(p), stats.Percentile(raw, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("set %d (n=%d) p%v: histogram %v, stats.Percentile %v", si, len(set), p, got, want)
			}
		}
	}
}

// TestFaultLatencyMerge: merging samplers pools their distributions —
// the merged percentiles equal those of one sampler fed every sample.
func TestFaultLatencyMerge(t *testing.T) {
	a := []uint64{5000, 7000, 7000, 90_000}
	b := []uint64{7000, 12_000, 400_000}
	pooled := NewFaultLatencySampler()
	pooled.Merge(sampled(a))
	pooled.Merge(sampled(b))
	pooled.Merge(NewFaultLatencySampler())
	whole := sampled(append(append([]uint64(nil), a...), b...))
	if pooled.Count() != whole.Count() {
		t.Fatalf("merged Count %d, want %d", pooled.Count(), whole.Count())
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got, want := pooled.Percentile(p), whole.Percentile(p); got != want {
			t.Errorf("p%v: merged %v, whole %v", p, got, want)
		}
	}
}
