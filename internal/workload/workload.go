// Package workload provides deterministic page-level access-trace
// generators modeling the benchmarks of the paper's evaluation: a 1 GB
// sequential-scan microbenchmark, the SPEC CPU2017 subset of Table 1, mcf
// from SPEC CPU2006, the SD-VBS vision applications SIFT and MSER, and the
// synthesized mixed-blood program of §5.4.
//
// The real benchmarks cannot run here (no SGX hardware, no Graphene), but
// the preloading schemes only ever observe page-level behavior: DFP sees
// the sequence of faulting page numbers, and SIP sees per-site page
// traces. Each generator therefore reproduces the page-level pattern class
// the paper reports for its benchmark (Figure 3, Table 1) — sequential
// sweep structure, stream counts, irregular-site populations, and the
// train-vs-ref input drift that drives the paper's SIP findings — scaled
// so that footprint-to-EPC ratios match the paper's regime.
//
// Every generator is deterministic: the same (workload, input) pair always
// produces the identical access slice.
package workload

import (
	"fmt"
	"iter"
	"sort"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

// Input selects the data set, mirroring the paper's PGO methodology: the
// "train" input drives profiling, the "ref" input drives measurement
// (§5.2: "we use different input data sets for profiling and
// performance-collecting runs").
type Input int

// Inputs.
const (
	Train Input = iota
	Ref
)

// String returns the SPEC-style input name.
func (in Input) String() string {
	if in == Train {
		return "train"
	}
	return "ref"
}

// Category is the Table 1 classification.
type Category int

// Categories of Table 1.
const (
	SmallWS Category = iota
	LargeIrregular
	LargeRegular
)

// String returns the Table 1 row label.
func (c Category) String() string {
	switch c {
	case SmallWS:
		return "small working set"
	case LargeIrregular:
		return "large working set, irregular access"
	case LargeRegular:
		return "large working set, regular access"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Language is the benchmark's source language; the paper's prototype can
// only instrument C/C++ (§5.2), so Fortran benchmarks are excluded from
// SIP experiments.
type Language int

// Languages.
const (
	LangC Language = iota
	LangFortran
)

// String returns the language name.
func (l Language) String() string {
	if l == LangFortran {
		return "Fortran"
	}
	return "C/C++"
}

// Workload is one benchmark model.
type Workload struct {
	// Name is the benchmark name as it appears in the paper.
	Name string
	// Category is the Table 1 classification.
	Category Category
	// Language determines SIP eligibility.
	Language Language
	// Instrumentable is false for benchmarks the paper's tool cannot
	// handle (Fortran sources, and omnetpp, which the instrumenter "cannot
	// fully support").
	Instrumentable bool
	// FootprintPages is the working-set size in pages.
	FootprintPages uint64

	gen func(in Input, b *builder)
}

// ELRangePages returns the enclave virtual range the workload needs.
func (w *Workload) ELRangePages() uint64 { return w.FootprintPages + 16 }

// Generate produces the full access trace for the given input — the
// materialized adapter over the same generator Stream pulls from.
func (w *Workload) Generate(in Input) []mem.Access {
	b := &builder{r: rng.New(seed(w.Name, in))}
	w.gen(in, b)
	return b.out
}

// Stream returns a pull-based source producing exactly the accesses
// Generate(in) materializes, one at a time, in O(1) memory: the push-
// style generator runs as a coroutine (iter.Pull) that is suspended
// between accesses, so arbitrarily long traces never exist as a slice.
// The coroutine starts on the first Next, so a stream built ahead of its
// run (a compiled spec's launches) holds no goroutine until it is pulled.
// The stream is exhausted-or-Closed: draining it to the end releases the
// coroutine, and Close releases it early (an abandoned engine run).
func (w *Workload) Stream(in Input) mem.Stream {
	return &genStream{gen: func(yield func(mem.Access) bool) {
		defer func() {
			// A consumer that stops early unwinds the generator via the
			// stopGen panic emit raises; anything else propagates.
			if r := recover(); r != nil {
				if _, ok := r.(stopGen); !ok {
					panic(r)
				}
			}
		}()
		b := &builder{r: rng.New(seed(w.Name, in)), yield: yield}
		w.gen(in, b)
	}}
}

// genStream adapts a generator to mem.Stream through an iter.Pull
// coroutine started on the first Next.
type genStream struct {
	gen  iter.Seq[mem.Access]
	next func() (mem.Access, bool) // nil until the first Next
	stop func()
	done bool
}

func (s *genStream) Next() (mem.Access, bool) {
	if s.done {
		return mem.Access{}, false
	}
	if s.next == nil {
		s.next, s.stop = iter.Pull(s.gen)
	}
	a, ok := s.next()
	if !ok {
		s.done = true
		s.stop()
	}
	return a, ok
}

// Close releases the generator coroutine; safe to call repeatedly, after
// exhaustion, and before the first Next (a no-op then).
func (s *genStream) Close() {
	s.done = true
	if s.stop != nil {
		s.stop()
	}
}

// stopGen unwinds a generator whose consumer stopped pulling.
type stopGen struct{}

// seed derives a deterministic per-(workload, input) seed.
func seed(name string, in Input) uint64 {
	// FNV-1a over the name, mixed with the input.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ (uint64(in+1) * 0x9e3779b97f4a7c15)
}

// builder is the generators' output sink. In materializing mode (yield
// nil) it accumulates the trace in out; in streaming mode each access is
// yielded to the pulling consumer and never stored.
type builder struct {
	r     *rng.Source
	out   []mem.Access
	yield func(mem.Access) bool
}

// push hands one access to the active sink.
func (b *builder) push(a mem.Access) {
	if b.yield != nil {
		if !b.yield(a) {
			panic(stopGen{})
		}
		return
	}
	b.out = append(b.out, a)
}

// emit appends one access.
func (b *builder) emit(site mem.SiteID, page mem.PageID, compute uint64) {
	b.push(mem.Access{Site: site, Page: page, Compute: compute})
}

// emitW appends one write access.
func (b *builder) emitW(site mem.SiteID, page mem.PageID, compute uint64) {
	b.push(mem.Access{Site: site, Page: page, Compute: compute, Write: true})
}

// registry holds every modeled benchmark, keyed by paper name.
var registry = map[string]*Workload{}

func register(w *Workload) *Workload {
	if _, dup := registry[w.Name]; dup {
		panic("workload: duplicate registration: " + w.Name)
	}
	registry[w.Name] = w
	return w
}

// ByName returns the named workload.
func ByName(name string) (*Workload, error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	return w, nil
}

// Names returns all benchmark names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every workload, sorted by name.
func All() []*Workload {
	names := Names()
	out := make([]*Workload, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// ByCategory returns the workloads in the given Table 1 category.
func ByCategory(c Category) []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.Category == c {
			out = append(out, w)
		}
	}
	return out
}

// SiteOf converts a raw site number; convenience for tools and tests.
func SiteOf(n uint32) mem.SiteID { return mem.SiteID(n) }
