package obs

import "sync"

// DefaultRingCapacity is the event window a NewRing(0) retains. At the
// engine's typical emission density (a few events per fault) it covers
// the most recent tens of millions of simulated cycles, which is what a
// live scrape wants to look at.
const DefaultRingCapacity = 1 << 16

// Ring is a bounded, concurrency-safe Hook: it retains the most recent
// `capacity` events and drops the oldest beyond that. Unlike Recorder —
// which rides the single-goroutine run and is lock-free — Ring takes a
// mutex per operation so an HTTP scraper (or any other goroutine) can
// read a consistent snapshot while the engine is still emitting.
//
// Every emitted event gets a 1-based sequence number; dropped events keep
// their numbers, so a poller can detect gaps: if Since(cursor) reports a
// first-retained sequence above cursor+1, the window slid past it.
type Ring struct {
	mu     sync.Mutex
	buf    []Event // circular, len(buf) == capacity
	start  int     // index of the oldest retained event
	n      int     // number of retained events
	total  uint64  // events ever emitted == sequence of the newest
	counts [kindCount]uint64
	lastT  uint64 // largest timestamp seen
}

// NewRing returns a Ring retaining at most capacity events
// (DefaultRingCapacity when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit implements Hook.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	r.counts[e.Kind]++
	if e.T > r.lastT {
		r.lastT = e.T
	}
	if e.Kind == KindLoadStart && e.V1 > r.lastT {
		r.lastT = e.V1
	}
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
}

// RingStats is a consistent point-in-time view of a Ring's gauges,
// taken under one lock acquisition.
type RingStats struct {
	// Total is the number of events ever emitted.
	Total uint64
	// Retained is the number currently held in the window.
	Retained int
	// Dropped is Total minus Retained.
	Dropped uint64
	// LastT is the largest timestamp (or transfer completion) seen.
	LastT uint64
	// Counts holds whole-run per-kind totals keyed by wire name; zero
	// kinds are omitted.
	Counts map[string]uint64
}

// Stats returns a consistent snapshot of the ring's gauges.
func (r *Ring) Stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	counts := make(map[string]uint64)
	for _, k := range Kinds() {
		if r.counts[k] > 0 {
			counts[k.String()] = r.counts[k]
		}
	}
	return RingStats{
		Total:    r.total,
		Retained: r.n,
		Dropped:  r.total - uint64(r.n),
		LastT:    r.lastT,
		Counts:   counts,
	}
}

// Snapshot returns a copy of the retained window, oldest first, together
// with the sequence number of its first event (0 when empty).
func (r *Ring) Snapshot() ([]Event, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.copyFrom(0)
}

// Since returns a copy of the retained events with sequence numbers
// strictly greater than cursor, oldest first, together with the sequence
// of the first returned event (0 when none). Pass the last sequence you
// have seen (first + len(events) - 1 from the previous call, or the
// "next" cursor the HTTP endpoint hands back) to poll incrementally.
func (r *Ring) Since(cursor uint64) ([]Event, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	oldest := r.total - uint64(r.n) // sequence of oldest retained, minus 1
	skip := 0
	if cursor > oldest {
		skip = int(cursor - oldest)
		if skip > r.n {
			skip = r.n
		}
	}
	return r.copyFrom(skip)
}

// copyFrom copies the retained window from the given offset; callers
// hold r.mu.
func (r *Ring) copyFrom(skip int) ([]Event, uint64) {
	if skip >= r.n {
		return nil, 0
	}
	out := make([]Event, r.n-skip)
	for i := range out {
		out[i] = r.buf[(r.start+skip+i)%len(r.buf)]
	}
	first := r.total - uint64(r.n) + uint64(skip) + 1
	return out, first
}
