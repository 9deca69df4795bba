// Package dfp implements the paper's first contribution: Dynamic Fault
// history-based Preloading.
//
// DFP runs entirely in the untrusted OS. The only signal it sees is the
// sequence of faulting enclave page numbers (SGX clears the bottom 12 bits
// of the faulting address, so nothing finer is available). Algorithm 1 of
// the paper recognizes sequential streams in that fault history with a
// fixed-length LRU list of stream tails and, on every stream hit, asks the
// kernel to preload the next LOADLENGTH pages of the stream.
//
// Two abort mechanisms bound the cost of mispredictions:
//
//   - In-stream abort: a fault on a page that was predicted but not yet
//     loaded cancels the unstarted remainder of the batch (implemented in
//     the kernel's fault path; Algorithm 1 additionally rebuilds
//     list_to_load from scratch on every fault).
//   - Global abort ("DFP-stop", the safety valve of the paper's §4.2): a
//     service thread compares the number of preloaded pages that were
//     actually accessed (AccPreloadCounter) against the total number
//     preloaded (PreloadCounter) and permanently stops the preloading
//     thread when accuracy collapses. The valve does not depend on how
//     pages are predicted, so it lives once, in core.Predictor, around
//     every strategy; Config carries its two constants.
package dfp

import (
	"fmt"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// Direction of a recognized stream.
type Direction int8

// Stream directions. Algorithm 1's add_to_list takes a direction operand:
// ascending streams preload pages after the fault, descending streams
// preload pages before it.
const (
	Forward  Direction = 1
	Backward Direction = -1
)

// Config holds the predictor's tunables — the two design parameters the
// paper studies in Figures 6 and 7 — plus the stop-formula constants of
// §4.2, which core.Predictor's valve reads.
type Config struct {
	// StreamListLen is the fixed length of the LRU stream_list. The paper
	// sweeps it in Figure 6 and settles on 30.
	StreamListLen int
	// LoadLength is the preload distance: how many pages past the stream
	// tail are queued on every stream hit. The paper sweeps it in Figure 7
	// and settles on 4.
	LoadLength int
	// Backward enables recognition of descending streams. The paper's
	// algorithm carries a direction operand; the evaluated implementation
	// is the Linux-readahead-style forward recognizer, so this defaults
	// off.
	Backward bool
	// Stop enables the global abort (DFP-stop in Figure 8).
	Stop bool
	// StopSlack is the additive constant T in the stop formula
	// AccPreloadCounter + T < PreloadCounter/2. The paper uses 200,000 on
	// full SPEC runs; the default here is scaled to the simulator's
	// smaller workloads and is configurable.
	StopSlack uint64
}

// DefaultConfig returns the paper's chosen operating point (stream list of
// 30 entries, preload distance 4) with the stop mechanism disabled — the
// paper evaluates plain DFP and DFP-stop separately.
func DefaultConfig() Config {
	return Config{StreamListLen: 30, LoadLength: 4, StopSlack: 300}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.StreamListLen <= 0 {
		return fmt.Errorf("dfp: StreamListLen must be positive, got %d", c.StreamListLen)
	}
	if c.LoadLength <= 0 {
		return fmt.Errorf("dfp: LoadLength must be positive, got %d", c.LoadLength)
	}
	return nil
}

// entry is one stream_list element: the most recent faulting page of a
// stream (stpn, "stream tail page number"), the furthest page the stream
// has predicted (pend), and the stream's direction.
//
// Tracking pend is what makes the recognizer work once preloading
// succeeds: when the predicted pages are loaded in time, the stream's next
// fault lands at pend+1, not stpn+1, and when the application outruns the
// preload worker the fault lands between stpn and pend. Both must extend
// the stream — this is the same windowing Linux readahead applies to its
// ahead window.
type entry struct {
	stpn mem.PageID
	pend mem.PageID // furthest predicted page; == stpn before first prediction
	dir  Direction  // 0 until the second fault fixes the direction
	id   uint64     // lifecycle tag for stream events (1-based)
	hits uint64     // faults that extended this stream
}

// window is the inclusive page interval [lo, hi] outside which a fault
// cannot extend an entry: Forward [stpn+1, pend+1], Backward
// [pend-1, stpn-1], undirected [stpn-1, stpn+1]. It is a superset of what
// matches accepts, so a fault outside it is rejected with one compare.
// The bounds wrap modulo 2^64 at page 0 and at mem.NoPage, which only
// widens the interval: contains reads it cyclically from lo to hi.
type window struct{ lo, hi mem.PageID }

// windowOf returns e's window.
func windowOf(e *entry) window {
	switch e.dir {
	case Forward:
		return window{e.stpn + 1, e.pend + 1}
	case Backward:
		return window{e.pend - 1, e.stpn - 1}
	}
	return window{e.stpn - 1, e.stpn + 1}
}

// contains reports whether npn lies in w, read cyclically from lo.
func (w window) contains(npn mem.PageID) bool { return npn-w.lo <= w.hi-w.lo }

// Predictor is the multiple-stream predictor of Algorithm 1. The zero
// value is unusable; construct with New.
type Predictor struct {
	cfg Config
	// streams is ordered most-recently-used first. Lengths are at most a
	// few dozen (the paper sweeps 2..60), so linear scans beat pointer
	// chasing through container/list. windows[i] is streams[i]'s window,
	// kept in a parallel slice so the per-fault scan reads 16 bytes per
	// entry and runs matches only where the window admits the fault.
	streams []entry
	windows []window

	hits   uint64 // faults that extended a stream
	misses uint64 // faults that started a new stream

	nextStream uint64   // stream id allocator
	hook       obs.Hook // nil = observability disabled

	// scratch is the reusable prediction buffer; it keeps the per-fault
	// hot path allocation-free on unbounded streamed runs.
	scratch []mem.PageID
}

// New returns a predictor for the given configuration.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{cfg: cfg,
		streams: make([]entry, 0, cfg.StreamListLen),
		windows: make([]window, 0, cfg.StreamListLen)}, nil
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

// SetHook installs an event hook for stream-lifecycle events (nil
// disables). The predictor has no clock of its own — it sees only the
// fault-page sequence — so it emits events with a zero timestamp; the
// kernel installs an obs.Clocked wrapper that stamps them with the
// fault's resume cycle.
func (p *Predictor) SetHook(h obs.Hook) { p.hook = h }

// OnFault implements Algorithm 1. npn is the newly faulting page number.
// It returns the list of pages to preload (nil when the fault does not
// extend any stream). The returned slice is
// only valid until the next OnFault call: it aliases an internal scratch
// buffer, so callers that need the pages later must copy them.
//
// When npn is sequential to a stream — strictly adjacent to the tail of a
// stream that has not predicted yet, or anywhere inside (tail, pend+1] of
// a stream that has — the tail is advanced, the entry moves to the head of
// the LRU list, and the next LoadLength pages in the stream's direction
// are returned for preloading. Otherwise the least recently used entry is
// replaced with a new single-page stream starting at npn.
func (p *Predictor) OnFault(npn mem.PageID) []mem.PageID {
	for i, w := range p.windows {
		if !w.contains(npn) {
			continue
		}
		e := &p.streams[i]
		dir, ok := e.matches(npn, p.cfg.Backward)
		if !ok {
			continue
		}
		p.hits++
		e.hits++
		e.stpn = npn
		e.dir = dir
		pend, out := p.predict(npn, dir)
		e.pend = pend
		p.windows[i] = windowOf(e)
		if p.hook != nil {
			p.hook.Emit(obs.Event{Kind: obs.KindStreamHit, Page: npn,
				Batch: e.id, V1: uint64(len(out))})
		}
		p.moveToHead(i)
		return out
	}
	p.misses++
	p.nextStream++
	if p.hook != nil {
		p.hook.Emit(obs.Event{Kind: obs.KindStreamStart, Page: npn, Batch: p.nextStream})
	}
	p.insert(entry{stpn: npn, pend: npn, id: p.nextStream})
	return nil
}

// matches reports whether a fault on npn extends the stream and in which
// direction. The window tests are written without pend±1 arithmetic on
// the comparison side: at the top of the address space pend+1 would
// collide with the mem.NoPage sentinel (accepting every page above the
// tail), and at the bottom pend-1 would wrap; both edges are guarded
// explicitly instead.
func (e *entry) matches(npn mem.PageID, backward bool) (Direction, bool) {
	switch e.dir {
	case Forward:
		// Window (stpn, pend], plus pend+1 when that page exists.
		if npn > e.stpn && (npn <= e.pend || (e.pend < mem.NoPage-1 && npn == e.pend+1)) {
			return Forward, true
		}
	case Backward:
		// Window [pend, stpn), plus pend-1 when that page exists.
		if npn < e.stpn && (npn >= e.pend || (e.pend > 0 && npn == e.pend-1)) {
			return Backward, true
		}
	default: // direction not yet established: require strict adjacency
		if e.stpn < mem.NoPage-1 && npn == e.stpn+1 {
			return Forward, true
		}
		if backward && e.stpn > 0 && npn == e.stpn-1 {
			return Backward, true
		}
	}
	return 0, false
}

// predict returns the furthest page predicted and the LoadLength pages
// following npn in direction dir, stopping at the address-space boundary.
func (p *Predictor) predict(npn mem.PageID, dir Direction) (mem.PageID, []mem.PageID) {
	out := p.scratch[:0]
	cur := npn
	for i := 0; i < p.cfg.LoadLength; i++ {
		next := successor(cur, dir)
		if next == mem.NoPage {
			break
		}
		cur = next
		out = append(out, cur)
	}
	p.scratch = out
	return cur, out
}

// successor returns the page adjacent to page in direction dir, or
// mem.NoPage at the boundary.
func successor(page mem.PageID, dir Direction) mem.PageID {
	if dir == Backward {
		if page == 0 {
			return mem.NoPage
		}
		return page - 1
	}
	if page == mem.NoPage-1 {
		return mem.NoPage
	}
	return page + 1
}

// moveToHead moves streams[i] to the front, preserving the order of the
// others.
func (p *Predictor) moveToHead(i int) {
	if i == 0 {
		return
	}
	e, w := p.streams[i], p.windows[i]
	copy(p.streams[1:i+1], p.streams[:i])
	copy(p.windows[1:i+1], p.windows[:i])
	p.streams[0], p.windows[0] = e, w
}

// insert places a new entry at the head, evicting the LRU tail when the
// list is full.
func (p *Predictor) insert(e entry) {
	if len(p.streams) < p.cfg.StreamListLen {
		p.streams = append(p.streams, entry{})
		p.windows = append(p.windows, window{})
	} else if p.hook != nil {
		tail := p.streams[len(p.streams)-1]
		p.hook.Emit(obs.Event{Kind: obs.KindStreamEnd, Batch: tail.id, V1: tail.hits})
	}
	copy(p.streams[1:], p.streams[:len(p.streams)-1])
	copy(p.windows[1:], p.windows[:len(p.windows)-1])
	p.streams[0], p.windows[0] = e, windowOf(&e)
}

// Len returns the number of live stream entries.
func (p *Predictor) Len() int { return len(p.streams) }

// Tails returns the stream tails in MRU order; for tests and tooling.
func (p *Predictor) Tails() []mem.PageID {
	out := make([]mem.PageID, len(p.streams))
	for i, e := range p.streams {
		out[i] = e.stpn
	}
	return out
}

// HitRate returns the fraction of faults that extended a stream.
func (p *Predictor) HitRate() float64 {
	total := p.hits + p.misses
	if total == 0 {
		return 0
	}
	return float64(p.hits) / float64(total)
}

// Hits returns the number of stream-extending faults observed.
func (p *Predictor) Hits() uint64 { return p.hits }

// Misses returns the number of stream-starting faults observed.
func (p *Predictor) Misses() uint64 { return p.misses }
