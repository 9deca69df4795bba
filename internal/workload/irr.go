package workload

import (
	"fmt"
	"math"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

// Irregular (Table 1 "large working set with irregular access") benchmark
// models: mcf, deepsjeng, omnetpp, xz and roms from SPEC CPU2017, plus mcf
// from SPEC CPU2006, which the paper adds for the SIP study.
//
// Each model spreads its irregular traffic over a family of static access
// sites with a per-site probability of touching a cold (likely-faulting)
// page. The profile-time ("train") and measurement-time ("ref") cold
// probabilities differ per benchmark, reproducing the input drift that
// drives the paper's SIP findings: deepsjeng's irregular sites stay
// irregular on ref (+9.0%), while mcf's sites that profiled as irregular
// run almost entirely on resident pages under ref input, so the
// BIT_MAP_CHECK overhead on those Class-1 accesses offsets the preloading
// gain — the paper's "wash" (§5.2).
//
// A fraction of cold accesses is followed by a touch of the adjacent page
// (data structures spanning page boundaries). Those two-page runs are what
// bait DFP's stream recognizer into junk preloads, producing the plain-DFP
// losses of Figure 8 that DFP-stop then bounds.

// irrSpec describes a family of irregular access sites.
type irrSpec struct {
	base mem.SiteID
	k    int
	// coldTrain and coldRef give site j's probability of touching a cold
	// page under each input. compile calls them once per site.
	coldTrain func(j int) float64
	coldRef   func(j int) float64
	// skew > 1 biases site selection toward low j (hot loop bodies execute
	// more often); 1 is uniform.
	skew float64
}

// irrFamily is an irrSpec compiled into tables, so that an access costs
// no transcendental math. Families are package-level values built at
// package initialisation (about 0.2 ms for all of them, checks
// included, on a 2-vCPU Xeon; BenchmarkIrrFamilyTables) and only read
// afterwards, so concurrent generators share them.
//
// Site j is picked for the draw x = Uint64()>>11 (the 53 bits Float64
// uses) by the reference
//
//	pickExact(x) = min(int(Pow(x/2^53, skew)·k), k-1),
//
// which pick reproduces exactly without calling Pow: x picks site j
// when thr[j] <= x < thr[j+1], with thr[j] = ceil((j/k)^(1/skew)·2^53).
// A bucket index on x's top bits gives a starting site, from which the
// search steps forward. The computed thresholds and Pow both round, so
// within pickGuard grid steps of a threshold pick defers to pickExact.
// That guard is the one assumption: math.Pow is accurate to far better
// than 2^-40 relative (it is within a few ulps, ~2^-52), so neither
// rounding moves a site boundary by more than a few grid steps of
// 2^-53. compile checks pickExact on both sides of every guard window
// and panics if one disagrees.
type irrFamily struct {
	irrSpec
	// trainCold[j] and refCold[j] are coldTrain(j) and coldRef(j).
	trainCold, refCold []float64
	// sites[j] is site j's slice of the draw range; nil when skew == 1,
	// where pickExact is a multiply.
	sites []pickSite
	// start[b] is the site holding draw b<<pickShift, the lowest draw of
	// bucket b.
	start [1 << pickBucketBits]uint8
}

// pickSite is one site's slice of the draw range.
type pickSite struct {
	// next is the site's upper threshold: draws at or above it pick a
	// later site.
	next uint64
	// Draws in [lo, lo+width) lie at least pickGuard grid steps from
	// both thresholds, so the table's site is pickExact's.
	lo, width uint64
}

const (
	// pickBucketBits is the width of the bucket index on a draw's top
	// bits: buckets are narrower than the sites' slices, so the forward
	// search takes at most a step or two.
	pickBucketBits = 10
	pickShift      = 53 - pickBucketBits
	// pickGuard is the distance, in grid steps of 2^-53, within which a
	// draw near a threshold is resolved by pickExact.
	pickGuard = 4096
)

// compile tabulates s's cold probabilities and, for skew != 1, its
// pick thresholds. It panics if k does not fit the bucket index or a
// guard-window check fails; both are bugs in a family's constants.
func (s irrSpec) compile() *irrFamily {
	if s.k < 1 || s.k > 256 {
		panic(fmt.Sprintf("workload: irregular family at site %d has %d sites, want 1..256", s.base, s.k))
	}
	f := &irrFamily{irrSpec: s, trainCold: make([]float64, s.k), refCold: make([]float64, s.k)}
	for j := 0; j < s.k; j++ {
		f.trainCold[j] = s.coldTrain(j)
		f.refCold[j] = s.coldRef(j)
	}
	if s.skew == 1 {
		return f
	}
	thr := make([]uint64, s.k+1)
	for j := 1; j < s.k; j++ {
		thr[j] = uint64(math.Ceil(math.Pow(float64(j)/float64(s.k), 1/s.skew) * (1 << 53)))
	}
	thr[s.k] = 1 << 53
	f.sites = make([]pickSite, s.k)
	for j := range f.sites {
		st := &f.sites[j]
		st.next = thr[j+1]
		st.lo = thr[j] + pickGuard
		if thr[j+1] > st.lo+pickGuard {
			st.width = thr[j+1] - pickGuard - st.lo
		}
		// Both ends of the safe window must pick j: the window's edges
		// are the outer sides of the neighboring guard windows.
		if st.width > 0 && (f.pickExact(st.lo) != j || f.pickExact(st.lo+st.width-1) != j) {
			panic(fmt.Sprintf("workload: irregular family at site %d: threshold of site %d is off by more than the guard", s.base, j))
		}
	}
	j := 0
	for b := range f.start {
		for thr[j+1] <= uint64(b)<<pickShift {
			j++
		}
		f.start[b] = uint8(j)
	}
	return f
}

// pick selects a site index.
func (f *irrFamily) pick(r *rng.Source) int {
	return f.site(r.Uint64() >> 11)
}

// site is the site index the draw x picks: pickExact(x), from the
// tables where they decide it.
func (f *irrFamily) site(x uint64) int {
	if j, ok := f.tableSite(x); ok {
		return j
	}
	return f.pickExact(x)
}

// tableSite is the site the tables give the draw x. ok is false where
// they cannot decide: within the guard of a threshold, or for a family
// without thresholds (skew == 1). Where ok, x lies in site j's
// guard-free window, whose ends compile checked, so j == pickExact(x).
func (f *irrFamily) tableSite(x uint64) (j int, ok bool) {
	if f.sites == nil {
		return 0, false
	}
	j = int(f.start[x>>pickShift])
	for x >= f.sites[j].next {
		j++
	}
	st := &f.sites[j]
	return j, x-st.lo < st.width
}

// pickExact is the reference site pick for the draw x, the formula the
// tables reproduce.
func (f *irrFamily) pickExact(x uint64) int {
	u := float64(x) / (1 << 53)
	if f.skew != 1 {
		u = math.Pow(u, f.skew)
	}
	j := int(u * float64(f.k))
	if j >= f.k {
		j = f.k - 1
	}
	return j
}

// cold returns site j's cold probability under in.
func (f *irrFamily) cold(in Input, j int) float64 {
	if in == Train {
		return f.trainCold[j]
	}
	return f.refCold[j]
}

// irrAccess emits one family access: cold accesses touch a uniformly
// random page in [coldLo, coldHi), hot accesses a random page in
// [hotLo, hotHi) (a region small enough to stay resident). With
// probability adj a cold access is followed by its neighbor page.
func (f *irrFamily) irrAccess(b *builder, in Input, hotLo, hotHi, coldLo, coldHi uint64, adj float64, compute uint64) {
	f.irrAccessM(b, in, 1, hotLo, hotHi, coldLo, coldHi, adj, compute)
}

// irrAccessM is irrAccess with the cold probability scaled by mult.
//
// Pointer-chasing programs do not fault uniformly: they alternate between
// phases working a resident set and phases chasing cold structures (mcf's
// pricing sweeps, deepsjeng's deep probe sequences). Callers model that by
// passing a phase-dependent multiplier whose time average is ≈1, which
// preserves every site's profiled class mix while clustering the faults —
// and clustered faults are what make mispredicted preloads expensive: the
// junk transfers collide with the demand faults right behind them.
func (f *irrFamily) irrAccessM(b *builder, in Input, mult float64, hotLo, hotHi, coldLo, coldHi uint64, adj float64, compute uint64) {
	j := f.pick(b.r)
	site := f.base + mem.SiteID(j)
	p := f.cold(in, j) * mult
	if p > 1 {
		p = 1
	}
	if b.r.Chance(p) {
		page := coldLo + b.r.Uint64n(coldHi-coldLo)
		b.emit(site, mem.PageID(page), compute)
		if adj > 0 && page+1 < coldHi && b.r.Chance(adj) {
			b.emit(site, mem.PageID(page+1), compute/4)
		}
		return
	}
	b.emit(site, mem.PageID(hotLo+b.r.Uint64n(hotHi-hotLo)), compute)
}

// phaseMult returns a two-level cold multiplier: high for burst iterations
// (it mod period < burstLen), low otherwise, with time average ≈ 1.
func phaseMult(it, period, burstLen int, high float64) float64 {
	if it%period < burstLen {
		return high
	}
	p, bl := float64(period), float64(burstLen)
	low := (p - high*bl) / (p - bl)
	if low < 0 {
		return 0
	}
	return low
}

// mcfFamily holds mcf's pricing-loop sites.
var mcfFamily = irrSpec{
	base: 1000,
	k:    120,
	coldTrain: func(j int) float64 {
		return 0.005 + 0.5*math.Pow(float64(j)/119, 1.5)
	},
	coldRef: func(int) float64 { return 0.0146 },
	skew:    1,
}.compile()

// mcf (SPEC CPU2017): network simplex over node and arc arrays. Its hot
// pricing loops profile as irregular under the train network but run
// almost entirely on resident pages under the ref network — the paper's
// SIP wash case, with ~99 instrumentation points.
var Mcf = register(&Workload{
	Name:           "mcf",
	Category:       LargeIrregular,
	Language:       LangC,
	Instrumentable: true,
	FootprintPages: 8192,
	gen: func(in Input, b *builder) {
		iters := 9000
		if in == Train {
			iters = 2500
		}
		for it := 0; it < iters; it++ {
			m := phaseMult(it, 32, 3, 10)
			for a := 0; a < 40; a++ {
				mcfFamily.irrAccessM(b, in, m, 0, 384, 1024, 8192, 0.5, 1200)
			}
		}
	},
})

// mcf2006Family holds mcf.2006's irregular sites.
var mcf2006Family = irrSpec{
	base: 1500,
	k:    130,
	coldTrain: func(j int) float64 {
		return 0.03 + 0.4*math.Pow(float64(j)/129, 1.5)
	},
	coldRef: func(j int) float64 {
		return 0.25 * (0.03 + 0.4*math.Pow(float64(j)/129, 1.5))
	},
	skew: 1.6,
}.compile()

// mcf.2006 (SPEC CPU2006): same algorithm, different implementation and
// memory-access mix — its irregular sites stay irregular on ref, so SIP
// recovers ≈5%. The paper reports 114 instrumentation points.
var Mcf2006 = register(&Workload{
	Name:           "mcf.2006",
	Category:       LargeIrregular,
	Language:       LangC,
	Instrumentable: true,
	FootprintPages: 8192,
	gen: func(in Input, b *builder) {
		iters := 9000
		if in == Train {
			iters = 2500
		}
		for it := 0; it < iters; it++ {
			for a := 0; a < 30; a++ {
				mcf2006Family.irrAccess(b, in, 0, 384, 1024, 8192, 0.2, 8000)
			}
		}
	},
})

// deepsjengFamily holds deepsjeng's transposition-table probe sites.
var deepsjengFamily = irrSpec{
	base: 3100,
	k:    60,
	coldTrain: func(j int) float64 {
		return 0.02 + 0.6*math.Pow(float64(j)/59, 1.5)
	},
	coldRef: func(j int) float64 {
		return 0.32 * (0.02 + 0.6*math.Pow(float64(j)/59, 1.5))
	},
	skew: 1.2,
}.compile()

// deepsjeng: chess search. Transposition-table probes hash to effectively
// random pages of a table far larger than the EPC; entries span page
// boundaries often enough to bait DFP (Figure 8's −34% without the stop
// mechanism), while SIP converts the probe faults into in-enclave preloads
// (+9.0%, Figure 10; 35 instrumentation points).
var Deepsjeng = register(&Workload{
	Name:           "deepsjeng",
	Category:       LargeIrregular,
	Language:       LangC,
	Instrumentable: true,
	FootprintPages: 8192,
	gen: func(in Input, b *builder) {
		// The ref game tree uses full-size tables that nearly fill the
		// EPC — every junk preload displaces a live page. The train game
		// is smaller, so the table sites profile as resident (Class 1)
		// and stay uninstrumented.
		iters, evalPages, hotLo, hotHi := 16000, uint64(512), uint64(512), uint64(1536)
		if in == Train {
			iters, evalPages, hotLo, hotHi = 5000, 256, 256, 768
		}
		for it := 0; it < iters; it++ {
			for a := 0; a < 4; a++ {
				b.emit(3000+mem.SiteID(b.r.Intn(20)), mem.PageID(b.r.Uint64n(evalPages)), 1500)
			}
			// Transposition-table probes: the irregular family.
			m := phaseMult(it, 16, 3, 4)
			for a := 0; a < 6; a++ {
				deepsjengFamily.irrAccessM(b, in, m, hotLo, hotHi, 1920, 8192, 0.45, 11500)
			}
		}
	},
})

// omnetppFamily holds omnetpp's heap and event-object sites.
var omnetppFamily = irrSpec{
	base:      4000,
	k:         30,
	coldTrain: func(j int) float64 { return 0.02 + 0.25*float64(j)/29 },
	coldRef:   func(j int) float64 { return 0.02 + 0.25*float64(j)/29 },
	skew:      1.4,
}.compile()

// omnetpp: discrete-event network simulation. Heap and event-object
// traffic is irregular; the paper's instrumenter "cannot fully support it"
// so it is excluded from SIP runs but present in the DFP study.
var Omnetpp = register(&Workload{
	Name:           "omnetpp",
	Category:       LargeIrregular,
	Language:       LangC,
	Instrumentable: false,
	FootprintPages: 6144,
	gen: func(in Input, b *builder) {
		iters := 20000
		if in == Train {
			iters = 6000
		}
		for it := 0; it < iters; it++ {
			m := phaseMult(it, 20, 3, 6)
			for a := 0; a < 10; a++ {
				omnetppFamily.irrAccessM(b, in, m, 0, 1792, 1792, 6144, 0.45, 6000)
			}
		}
	},
})

// xzFamily holds xz's dictionary and match-table probe sites.
var xzFamily = irrSpec{
	base: 5100,
	k:    75,
	coldTrain: func(j int) float64 {
		return 0.01 + 0.3*math.Pow(float64(j)/74, 2)
	},
	coldRef: func(j int) float64 {
		return 0.7 * (0.01 + 0.3*math.Pow(float64(j)/74, 2))
	},
	skew: 1.5,
}.compile()

// xz: compression. The input scan is sequential; dictionary and match-
// table probes are irregular (46 instrumentation points in the paper).
var Xz = register(&Workload{
	Name:           "xz",
	Category:       LargeIrregular,
	Language:       LangC,
	Instrumentable: true,
	FootprintPages: 8192,
	gen: func(in Input, b *builder) {
		// The train input compresses one long stream (sequential scan);
		// the ref input is a multi-block archive whose traversal jumps
		// past the stream window between short runs.
		steps, runLo, runVar := 800, 3, 3
		if in == Train {
			steps, runLo, runVar = 130, 24, 8
		}
		pos := uint64(0)
		for st := 0; st < steps; st++ {
			run := runLo + b.r.Intn(runVar)
			for i := 0; i < run; i++ {
				pos = (pos + 1) % 3072
				b.emit(5001, mem.PageID(pos), 26000+b.r.Uint64n(4000))
			}
			pos = (pos + 8 + b.r.Uint64n(12)) % 3072
			m := phaseMult(st, 16, 2, 6)
			for a := 0; a < 18; a++ {
				xzFamily.irrAccessM(b, in, m, 3072, 3456, 3456, 8192, 0.5, 15000)
			}
		}
	},
})

// roms: ocean modeling (Fortran). Its grid sweeps are broken into short
// runs by land-masking and boundary exchanges: streams just long enough
// for DFP to latch onto, short enough that most of each preload batch is
// junk — the worst plain-DFP case in Figure 8 (−42%), rescued by DFP-stop.
var Roms = register(&Workload{
	Name:           "roms",
	Category:       LargeIrregular,
	Language:       LangFortran,
	Instrumentable: false,
	FootprintPages: 8192,
	gen: func(in Input, b *builder) {
		iters := 12000
		if in == Train {
			iters = 3500
		}
		const footprint = 8192
		for it := 0; it < iters; it++ {
			// A boundary-exchange burst: several two-page runs — each just
			// enough to bait the stream recognizer — back to back, then a
			// stretch of grid computation.
			for k := 0; k < 10; k++ {
				start := b.r.Uint64n(footprint - 8)
				b.emit(5500, mem.PageID(start), 3000+b.r.Uint64n(1500))
				b.emit(5501, mem.PageID(start+1), 3000+b.r.Uint64n(1500))
			}
			b.emit(5502, mem.PageID(b.r.Uint64n(footprint)), 260000)
		}
	},
})
