package workload

import (
	"math"
	"sync"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

// irrFamilies is every irregular site family the generators use.
var irrFamilies = map[string]*irrFamily{
	"mcf":         mcfFamily,
	"mcf.2006":    mcf2006Family,
	"deepsjeng":   deepsjengFamily,
	"omnetpp":     omnetppFamily,
	"xz":          xzFamily,
	"MSER":        mserFamily,
	"mixed-blood": mixedBloodFamily,
}

// thresholds returns f's site thresholds thr[0..k]: thr[j] is the
// lowest draw the table assigns to site j.
func (f *irrFamily) thresholds() []uint64 {
	thr := make([]uint64, f.k+1)
	for j, st := range f.sites {
		thr[j+1] = st.next
	}
	return thr
}

func TestIrrColdTables(t *testing.T) {
	// The tables hold exactly what the closures compute, each input's
	// under its own input.
	for name, f := range irrFamilies {
		for j := 0; j < f.k; j++ {
			for _, c := range []struct {
				in   Input
				want float64
			}{{Train, f.coldTrain(j)}, {Ref, f.coldRef(j)}} {
				if got := f.cold(c.in, j); math.Float64bits(got) != math.Float64bits(c.want) {
					t.Errorf("%s: site %d %s cold %v, want %v", name, j, c.in, got, c.want)
				}
			}
		}
	}
}

func TestSitePickExact(t *testing.T) {
	// The table pick must equal pickExact at every draw within two
	// guards (of 4,096 grid steps) of every threshold, where an
	// off-by-one threshold or a missing guard would show. On 1M seeded
	// draws per family, pick must equal pickExact and, for a family
	// with thresholds, the tables must decide every one of them
	// themselves: real draws fall in a guard with probability ~1e-10.
	const (
		span  = 2 * 4096
		draws = 1 << 20
	)
	for name, f := range irrFamilies {
		t.Run(name, func(t *testing.T) {
			if f.skew != 1 && len(f.sites) != f.k {
				t.Fatalf("%d site slices for %d sites", len(f.sites), f.k)
			}
			if f.sites != nil {
				for j, th := range f.thresholds() {
					lo, hi := uint64(0), uint64(1<<53)
					if th > span {
						lo = th - span
					}
					if th+span < hi {
						hi = th + span
					}
					for x := lo; x < hi; x++ {
						if got, want := f.site(x), f.pickExact(x); got != want {
							t.Fatalf("threshold %d: draw %d picks %d, want %d", j, x, got, want)
						}
					}
				}
			}
			a, b := rng.New(uint64(len(name))), rng.New(uint64(len(name)))
			for i := 0; i < draws; i++ {
				x := b.Uint64() >> 11
				want := f.pickExact(x)
				if got := f.pick(a); got != want {
					t.Fatalf("draw %d (%d) picks %d, want %d", i, x, got, want)
				}
				if j, ok := f.tableSite(x); f.sites != nil && (!ok || j != want) {
					t.Fatalf("draw %d (%d): tables give site %d, decided %v; want %d, decided", i, x, j, ok, want)
				}
			}
		})
	}
}

// splitMixSeed returns the seed whose rng.Source yields z as its first
// Uint64, by inverting SplitMix64's output mix.
func splitMixSeed(z uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 { // inverts y ^= y >> s
		x := y
		for i := uint(0); i < 64; i += s {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(c uint64) uint64 { // c⁻¹ mod 2^64, c odd
		x := c
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z = unshift(z, 31)
	z *= inverse(0x94d049bb133111eb)
	z = unshift(z, 27)
	z *= inverse(0xbf58476d1ce4e5b9)
	z = unshift(z, 30)
	return z - 0x9e3779b97f4a7c15
}

func TestSitePickFallback(t *testing.T) {
	// Real draws land inside a guard window with probability ~1e-10, so
	// this test makes them: for every site and both of its thresholds,
	// it seeds a Source whose first draw lies just inside the guard, and
	// pick must resolve it through pickExact to the same site.
	for name, f := range irrFamilies {
		if f.sites == nil {
			continue
		}
		thr := f.thresholds()
		for j, st := range f.sites {
			for _, x := range []uint64{thr[j], thr[j] + pickGuard - 1, st.next - pickGuard, st.next - 1} {
				if _, ok := f.tableSite(x); ok {
					t.Fatalf("%s: tables decide draw %d of site %d, inside the guard", name, x, j)
				}
				seed := splitMixSeed(x << 11)
				if got := rng.New(seed).Uint64(); got != x<<11 {
					t.Fatalf("seed %d draws %#x, want %#x", seed, got, x<<11)
				}
				if got, want := f.pick(rng.New(seed)), f.pickExact(x); got != want {
					t.Errorf("%s: guarded draw %d picks %d, want %d", name, x, got, want)
				}
			}
		}
	}
}

// pickSink keeps the site-pick benchmarks' results live.
var pickSink int

// BenchmarkSitePick compares one site pick by the Pow formula with one
// by the tables, each including its RNG draw, on deepsjeng's family.
func BenchmarkSitePick(b *testing.B) {
	f := deepsjengFamily
	b.Run("pow", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			pickSink += f.pickExact(r.Uint64() >> 11)
		}
	})
	b.Run("table", func(b *testing.B) {
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			pickSink += f.pick(r)
		}
	})
}

// BenchmarkIrrFamilyTables measures the one-time cost, paid at package
// initialisation, of compiling every irregular family with its checks.
func BenchmarkIrrFamilyTables(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range irrFamilies {
			pickSink += f.irrSpec.compile().k
		}
	}
}

func TestIrrFamiliesSharedConcurrently(t *testing.T) {
	// Every generator reads its family's tables from a package-level
	// value, so concurrent streams (a fleet's host workers) share them;
	// run under -race, this shows the sharing is read-only. Each stream
	// must still produce its materialized trace.
	var wg sync.WaitGroup
	for name := range irrFamilies {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := w.Generate(Train)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := w.Stream(Train)
				for i, exp := range want {
					if got, ok := s.Next(); !ok || got != exp {
						t.Errorf("%s: access %d is %+v/%v, want %+v", name, i, got, ok, exp)
						s.(mem.Closer).Close()
						return
					}
				}
				if extra, ok := s.Next(); ok {
					t.Errorf("%s: stream yields %+v past the trace", name, extra)
				}
			}()
		}
	}
	wg.Wait()
}
