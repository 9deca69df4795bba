package main

import (
	"math"
	"sort"
	"time"
)

// Host-speed calibration. The machines this benchmark runs on are
// shared, and on the 2-vCPU reference machine that shows: one round's
// host time moved by up to 60% within minutes as co-tenants came and
// went, and a fixed integer loop ran at half speed for seconds at a
// time. A run's median over 20 s of rounds then moved by 10-30% from run
// to run. So the parent times a fixed reference workload between rounds,
// and every end-to-end host time is reported in reference seconds: the
// raw time scaled by refNominal over the reference time around its
// round. The reference is fixed code in this package, so a change to the
// simulator cannot move it.
//
// The reference mixes three small kernels, because no single one tracked
// every workload's slowdowns: an integer loop (contention for the core),
// hash-map updates (hashing and cache misses), and a sort through an
// interface (branches and indirect calls). Each runs a few milliseconds.

// refNominal is a reference sample's time, in seconds, on the reference
// machine (Intel Xeon, 2 vCPUs) when it was quiet. A scale of 1 reads raw
// host seconds there.
const refNominal = 0.0026

const (
	refALUIters = 1_000_000
	refMapOps   = 60_000
	refSortLen  = 25_000
	refRepeats  = 3 // each kernel's time is the median of this many runs
)

// reference owns the kernels' inputs and sinks.
type reference struct {
	sortIn []uint32
	sink   uint64
}

func newReference() *reference {
	r := &reference{sortIn: make([]uint32, refSortLen)}
	x := uint32(2463534242)
	for i := range r.sortIn {
		x = xorshift32(x)
		r.sortIn[i] = x
	}
	return r
}

func xorshift32(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// sample times every kernel refRepeats times and returns the geometric
// mean of their medians, in seconds.
func (r *reference) sample() float64 {
	logSum := 0.0
	for _, kernel := range []func(){r.alu, r.hashMap, r.sort} {
		times := make([]float64, refRepeats)
		for i := range times {
			t := time.Now()
			kernel()
			times[i] = time.Since(t).Seconds()
		}
		sort.Float64s(times)
		logSum += math.Log(times[refRepeats/2])
	}
	return math.Exp(logSum / 3)
}

func (r *reference) alu() {
	x := uint64(88172645463325252)
	for i := 0; i < refALUIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	r.sink += x
}

func (r *reference) hashMap() {
	m := make(map[uint32]uint32, 1<<12)
	x := uint32(88675123)
	for i := 0; i < refMapOps; i++ {
		x = xorshift32(x)
		m[x&(1<<15-1)] += x
	}
	r.sink += uint64(len(m))
}

func (r *reference) sort() {
	v := append([]uint32(nil), r.sortIn...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	r.sink += uint64(v[0])
}
