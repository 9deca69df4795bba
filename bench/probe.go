package main

import (
	"time"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sim"
)

// This file is the benchmark's tracing: everything here wraps the
// simulator's public boundaries from outside, so no probe lives inside
// the program. Coarse calls (Generate, spec.Compile, sim.New, fleet.Run,
// replay.ReadFile, ...) become spans. Per-access calls (generator pulls,
// hook emits, engine steps) are too frequent for spans: each boundary
// gets a probe that counts every call and times a sample of them, and
// the probes are folded onto their cell's span.

// sampleEvery is the mean distance between timed per-access calls. A
// clock read costs tens of nanoseconds, as much as a whole hit-path
// step, so timing every call would measure mostly the clock.
const sampleEvery = 16

// probe counts one boundary's calls and times a pseudo-random sample of
// them. The stride is drawn from a xorshift generator so the sample
// cannot lock onto a periodic access pattern.
type probe struct {
	calls uint64  // every call
	timed uint64  // calls whose duration was measured
	ns    float64 // measured ns over the timed calls, clock cost removed
	skip  uint32  // calls left before the next timed one
	x     uint32  // xorshift state
	// busy, when non-nil, is set while a stepping probe times a whole
	// Engine.Step: a nested pull or emit is then not timed, so the step
	// interval never contains a nested clock read.
	busy *bool
}

func newProbe(busy *bool) probe { return probe{x: 2463534242, busy: busy} }

// sample reports whether the next call is timed.
func (p *probe) sample() bool {
	if p.busy != nil && *p.busy {
		return false
	}
	if p.skip > 0 {
		p.skip--
		return false
	}
	p.x ^= p.x << 13
	p.x ^= p.x >> 17
	p.x ^= p.x << 5
	p.skip = p.x % (2*sampleEvery - 1)
	return true
}

// record adds one timed call.
func (p *probe) record(d time.Duration) {
	p.timed++
	if ns := float64(d) - clockCost; ns > 0 {
		p.ns += ns
	}
}

// opStat is a probe's folded record, as written on a cell span.
type opStat struct {
	Calls  uint64  `json:"calls"`
	Timed  uint64  `json:"timed"`
	MeanNS float64 `json:"mean_ns"`
}

// fold sums probes of one boundary into an opStat.
func fold(ps ...*probe) opStat {
	var o opStat
	var ns float64
	for _, p := range ps {
		o.Calls += p.calls
		o.Timed += p.timed
		ns += p.ns
	}
	if o.Timed > 0 {
		o.MeanNS = ns / float64(o.Timed)
	}
	return o
}

// clockCost is the mean interval an empty time.Now/time.Since pair
// reads, subtracted from every timed call; calibrate sets it.
var clockCost float64

// calibrate measures clockCost. It runs once per traced process, before
// anything is timed.
func calibrate() {
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sum += time.Since(t)
	}
	clockCost = float64(sum) / n
}

// tracedStream wraps a generator stream: it counts successful pulls,
// times a sample, and forwards Close so an abandoned run still releases
// the generator coroutine underneath.
type tracedStream struct {
	src mem.Stream
	p   probe
}

func (s *tracedStream) Next() (mem.Access, bool) {
	if !s.p.sample() {
		a, ok := s.src.Next()
		if ok {
			s.p.calls++
		}
		return a, ok
	}
	t := time.Now()
	a, ok := s.src.Next()
	d := time.Since(t)
	if ok {
		s.p.calls++
		s.p.record(d)
	}
	return a, ok
}

func (s *tracedStream) Close() {
	if c, ok := s.src.(mem.Closer); ok {
		c.Close()
	}
}

// tracedHook wraps an obs.Hook: it counts events per kind and times a
// sample of the emits into the hook underneath. With no hook underneath
// it only counts, which gives event-derived counters (stream starts,
// quota rebalances) to workloads that run without a trace.
type tracedHook struct {
	next  obs.Hook
	kinds []uint64 // indexed by obs.Kind
	p     probe
}

func newTracedHook(next obs.Hook, busy *bool) *tracedHook {
	return &tracedHook{next: next, kinds: make([]uint64, len(obs.Kinds())+1), p: newProbe(busy)}
}

func (h *tracedHook) Emit(e obs.Event) {
	h.kinds[e.Kind]++
	h.p.calls++
	if h.next == nil {
		return
	}
	if !h.p.sample() {
		h.next.Emit(e)
		return
	}
	t := time.Now()
	h.next.Emit(e)
	h.p.record(time.Since(t))
}

// stepper drives an engine Step by Step and times a sample of the steps.
// While a sampled step runs, busy is set, so the pulls and emits nested
// in it are left untimed; the step's own time is then its mean minus the
// pull and emit time an average step contains (see ownStepNS).
type stepper struct {
	busy bool
	p    probe
}

func newStepper() *stepper { return &stepper{p: newProbe(nil)} }

// drain runs eng to completion, closing it on a step error.
func (s *stepper) drain(eng *sim.Engine) error {
	for {
		var (
			more bool
			err  error
		)
		if s.p.sample() {
			s.busy = true
			t := time.Now()
			more, err = eng.Step()
			d := time.Since(t)
			s.busy = false
			if more {
				s.p.record(d)
			}
		} else {
			more, err = eng.Step()
		}
		if err != nil {
			eng.Close()
			return err
		}
		if !more {
			return nil
		}
		s.p.calls++
	}
}

// ownStepNS is a step's own mean time: the timed steps' mean minus the
// pull and emit time the average step holds.
func ownStepNS(step, pull, emit opStat) float64 {
	if step.Calls == 0 {
		return 0
	}
	perStep := func(o opStat) float64 { return o.MeanNS * float64(o.Calls) / float64(step.Calls) }
	return step.MeanNS - perStep(pull) - perStep(emit)
}

// span is one coarse call: its id, its parent's id (0 for the root),
// and its start and end in ns since the round began. A cell span also
// carries the folded per-access probes of its cell.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Ops    map[string]opStat `json:"ops,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// spanLog keeps a round's spans in memory; the parent writes them out
// when the benchmark ends. Spans nest by call order on the round's one
// goroutine.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int // indices of the open spans, innermost last
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (l *spanLog) begin(name string) int {
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: time.Since(l.t0).Nanoseconds()})
	l.open = append(l.open, len(l.spans)-1)
	return len(l.spans) - 1
}

func (l *spanLog) end() {
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.spans[i].End = time.Since(l.t0).Nanoseconds()
}

// do runs fn inside a span named name.
func (l *spanLog) do(name string, fn func() error) error {
	l.begin(name)
	defer l.end()
	return fn()
}

// total sums the durations of every span named name.
func (l *spanLog) total(name string) float64 {
	var s float64
	for _, sp := range l.spans {
		if sp.Name == name {
			s += sp.seconds()
		}
	}
	return s
}
