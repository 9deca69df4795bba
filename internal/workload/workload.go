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
	"sync"

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
// materialized adapter over the same generator Stream pulls from. The
// generator fills fixed blockLen-access blocks, each kept when full;
// at the end their lengths are summed and the blocks are copied once
// into a slice of exactly that length (len == cap). Building a trace
// of n accesses thus allocates 2n accesses plus the unfilled rest of
// the last block (none when n is a whole number of blocks), and the
// blocks are garbage once Generate returns.
func (w *Workload) Generate(in Input) []mem.Access {
	var blocks [][]mem.Access
	b := &builder{r: rng.New(seed(w.Name, in)), out: make([]mem.Access, 0, blockLen)}
	b.flush = func(full []mem.Access) ([]mem.Access, bool) {
		blocks = append(blocks, full)
		return make([]mem.Access, 0, blockLen), true
	}
	w.gen(in, b)
	blocks = append(blocks, b.out) // the last block, full or partial
	n := 0
	for _, blk := range blocks {
		n += len(blk)
	}
	// make, not slices.Concat: its append growth rounds the capacity up
	// to the allocator's size class, and BenchmarkGenerateLarge ran ~10%
	// slower with it.
	tr := make([]mem.Access, n)
	at := 0
	for _, blk := range blocks {
		at += copy(tr[at:], blk)
	}
	return tr
}

// blockLen is the number of accesses in one of Generate's blocks
// (256 KB of mem.Access).
const blockLen = 8192

// Stream returns a pull-based source producing exactly the accesses
// Generate(in) materializes, in O(chunk) memory: the push-style generator
// runs as a coroutine (iter.Pull) that fills a chunkLen-access buffer and
// is suspended between chunks, so arbitrarily long traces never exist as
// a slice and the coroutine switches once per chunk, not once per access.
// The stream is a mem.Chunker, so the engine reads each chunk in place.
// The coroutine starts on the first pull, so a stream built ahead of its
// run (a compiled spec's launches) holds no goroutine until it is pulled.
// The stream is exhausted-or-Closed: draining it to the end releases the
// coroutine, and Close releases it early (an abandoned engine run).
func (w *Workload) Stream(in Input) mem.Stream {
	return &genStream{w: w, in: in}
}

// chunkLen is the number of accesses a streaming generator hands over per
// coroutine switch (2 KB of mem.Access).
const chunkLen = 64

// chunkPool recycles chunk buffers across streams, so a workload replayed
// pass after pass (a repeated stream) reuses one buffer.
var chunkPool = sync.Pool{New: func() any { return new([chunkLen]mem.Access) }}

// genStream adapts a generator to mem.Stream through an iter.Pull
// coroutine started on the first pull. It serves accesses from the chunk
// the coroutine last yielded, one by one (Next) or as a slice of that
// chunk (Chunk, so it is a mem.Chunker), and resumes the coroutine when
// the chunk is spent.
type genStream struct {
	w     *Workload
	in    Input
	chunk []mem.Access // the chunk being served
	pos   int          // next unserved index into chunk
	buf   *[chunkLen]mem.Access
	next  func() ([]mem.Access, bool) // nil until the first pull
	stop  func()
	done  bool
}

func (s *genStream) Next() (mem.Access, bool) {
	if s.pos == len(s.chunk) && !s.refill() {
		return mem.Access{}, false
	}
	a := s.chunk[s.pos]
	s.pos++
	return a, true
}

// Chunk returns up to max of the accesses left in the chunk the
// coroutine last yielded, resuming it first when that chunk is spent.
func (s *genStream) Chunk(max int) []mem.Access {
	if s.pos == len(s.chunk) && !s.refill() {
		return nil
	}
	c := s.chunk[s.pos:]
	if len(c) > max {
		c = c[:max]
	}
	s.pos += len(c)
	return c
}

// refill resumes the coroutine for its next chunk, starting it on the
// first call; at the generator's end it releases the stream.
func (s *genStream) refill() bool {
	if s.done {
		return false
	}
	if s.next == nil {
		s.start()
	}
	c, ok := s.next()
	if !ok {
		s.Close()
		return false
	}
	s.chunk, s.pos = c, 0
	return true
}

// start takes a chunk buffer from the pool and starts the coroutine
// filling it.
func (s *genStream) start() {
	s.buf = chunkPool.Get().(*[chunkLen]mem.Access)
	// The first chunk holds one access, so the first pull (an engine's
	// set-up lookahead) generates two accesses (the second push flushes
	// the first); every later one chunkLen.
	b := &builder{r: rng.New(seed(s.w.Name, s.in)), out: s.buf[:0:1]}
	s.next, s.stop = iter.Pull(func(yield func([]mem.Access) bool) {
		defer func() {
			// A consumer that stops early unwinds the generator via the
			// stopGen panic push raises; anything else propagates.
			if r := recover(); r != nil {
				if _, ok := r.(stopGen); !ok {
					panic(r)
				}
			}
		}()
		b.flush = func(full []mem.Access) ([]mem.Access, bool) {
			return s.buf[:0], yield(full)
		}
		s.w.gen(s.in, b)
		if len(b.out) > 0 { // the last chunk, full or partial
			yield(b.out)
		}
	})
}

// Close releases the generator coroutine and returns its chunk buffer to
// the pool; safe to call repeatedly, after exhaustion, and before the
// first pull (a no-op then).
func (s *genStream) Close() {
	s.done = true
	s.chunk, s.pos = nil, 0
	if s.stop != nil {
		s.stop()
	}
	// The coroutine has exited once stop returns, so nothing aliases the
	// buffer any more.
	if s.buf != nil {
		chunkPool.Put(s.buf)
		s.buf = nil
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

// builder is the generators' output sink: it fills the block out and,
// when a push finds the block full (len == cap), hands it to flush,
// which returns the block to fill next. A stream's flush yields the
// chunk to the pulling consumer and returns the same buffer to be
// reused; Generate's keeps the block and returns a fresh one, so the
// trace exists as its blocks plus, at the end, the one exact-size copy
// Generate returns.
type builder struct {
	r   *rng.Source
	out []mem.Access
	// flush takes a full block; false means the consumer stopped.
	flush func(full []mem.Access) (next []mem.Access, ok bool)
}

// push hands one access to the active sink. A full block is flushed
// when the next access needs room, not when it fills, so a trace whose
// length is a whole number of blocks ends on its last full block and
// Generate starts no block it would leave empty.
func (b *builder) push(a mem.Access) {
	if len(b.out) == cap(b.out) {
		next, ok := b.flush(b.out)
		if !ok {
			panic(stopGen{})
		}
		b.out = next
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
