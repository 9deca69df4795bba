package obs

import (
	"math"
	"slices"
)

// FaultLatencySampler is a Hook that collects every fault's service
// latency — KindFaultEnd's V1, resume minus raise — as it is emitted.
// It is the light-weight tail-latency probe behind the fleet layer's
// per-host p50/p95/p99 tables. Latencies are integer cycles, so the
// sampler keeps an exact value→count histogram: memory grows with the
// number of distinct latencies, not the number of faults, and a host
// can keep one installed across an unbounded run. Like every Hook it
// only observes; installing it never perturbs the simulated schedule.
type FaultLatencySampler struct {
	counts map[uint64]int
	n      int
}

// NewFaultLatencySampler returns an empty sampler.
func NewFaultLatencySampler() *FaultLatencySampler {
	return &FaultLatencySampler{counts: make(map[uint64]int)}
}

// Emit counts the latency of fault-end events and ignores the rest.
func (s *FaultLatencySampler) Emit(e Event) {
	if e.Kind == KindFaultEnd {
		s.counts[e.V1]++
		s.n++
	}
}

// Count returns the number of faults sampled so far.
func (s *FaultLatencySampler) Count() int { return s.n }

// Merge adds every sample of o to s — how the fleet pools its hosts'
// distributions into the fleet-wide one.
func (s *FaultLatencySampler) Merge(o *FaultLatencySampler) {
	for v, c := range o.counts {
		s.counts[v] += c
	}
	s.n += o.n
}

// Percentile returns the p-th percentile (0..100) of the sampled
// latencies, NaN when nothing was sampled. It is stats.Percentile over
// the raw samples, bit for bit: the same linear interpolation between
// the same two neighbouring ranks, read off the histogram.
func (s *FaultLatencySampler) Percentile(p float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	values := make([]uint64, 0, len(s.counts))
	for v := range s.counts {
		values = append(values, v)
	}
	slices.Sort(values)
	// at returns the sample at 0-based rank r of the ascending order.
	at := func(r int) float64 {
		for _, v := range values {
			if r < s.counts[v] {
				return float64(v)
			}
			r -= s.counts[v]
		}
		return float64(values[len(values)-1])
	}
	if p <= 0 {
		return at(0)
	}
	if p >= 100 {
		return at(s.n - 1)
	}
	rank := p / 100 * float64(s.n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if frac == 0 || lo+1 >= s.n {
		return at(lo)
	}
	a, b := at(lo), at(lo+1)
	return a + frac*(b-a)
}
