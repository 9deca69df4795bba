// Package channel models the EPC load channel: the single hardware path
// that moves pages between non-EPC memory and the EPC.
//
// The paper's measurements (its §3.1 and §5.6) establish three properties
// that this model reproduces exactly:
//
//  1. The channel loads one page at a time — loads are serialized.
//  2. An in-progress ELDU/ELDB load is non-preemptible: a demand fault
//     arriving mid-load waits for the load to finish.
//  3. Queued-but-unstarted preloads can be aborted (Algorithm 1 rebuilds
//     the to-load list on every fault, so at most one predicted batch is
//     ever pending).
//
// The channel is a pure time-keeper: it tracks the in-progress load and the
// pending preload batch, and leaves all policy (eviction, priorities,
// counters) to the kernel package that drives it. Demand loads and
// write-back bursts are synchronous Transfers, so the in-flight slot
// holds only a started preload, from Begin until Retire.
//
// The pending queue sits on the fault-servicing hot path (every Sync pops
// it, every prediction probes it), so it is a ring-buffer deque:
// PopPending and PeekPending are O(1). Membership probes, batch aborts and
// SIP removals look a page up in it. A counting filter — how many queued
// requests fall in each of 256 slots keyed by the page's low byte —
// answers a page whose slot is empty at once; otherwise the lookup scans
// the queue, whose depth the kernel caps at MaxPending (64).
package channel

import (
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// Request is a queued (not yet started) preload.
type Request struct {
	Page  mem.PageID
	Batch uint64
	// Enqueued is the earliest cycle the transfer may start.
	Enqueued uint64
}

// server is the shared single-server state: the one physical load path.
// Multiple Channels may share a server (multi-enclave mode: each enclave
// has its own preload queue, but transfers serialize on the same
// hardware).
type server struct {
	// The in-flight slot (Begin's preload), valid while busy. owner is
	// the beginning enclave's EPC owner: whichever sibling retires the
	// preload installs it under that owner.
	page      mem.PageID
	batch     uint64
	owner     int
	busy      bool
	busyUntil uint64
	started   uint64 // total transfers begun
}

// Channel is the single-server load queue. Construct with New; Sibling
// adds a channel sharing an existing one's server. A demand load or a
// write-back burst is one Transfer; only a started preload is in flight.
//
// The pending queue keeps one invariant: each batch ID occupies one
// contiguous run of the deque, and IDs strictly increase from front to
// back. QueueBatch appends a whole batch; overflow drops whole batches
// from the front or truncates the newest batch's tail; popping the front,
// removing a single request and clearing the queue cannot split a run.
// AbortBatchContaining relies on it to splice a batch out in one move.
type Channel struct {
	srv *server

	// The pending preload deque: a power-of-two ring buffer holding the
	// queued-but-unstarted requests in FIFO order.
	buf  []Request
	head int
	n    int
	// slots[uint8(p)] counts the queued requests whose page has low byte
	// uint8(p): exact after every push, pop, cut, truncation and clear,
	// so a zero proves p is not queued. Counts never exceed the queue
	// length, so int32 cannot overflow.
	slots [256]int32

	aborted     uint64 // queued preloads dropped before starting
	lastBatchID uint64
	hook        obs.Hook // nil = observability disabled
}

// SetHook installs an event hook on this channel (nil disables). In a
// shared-server group each channel carries its own hook; transfer events
// are emitted by the channel whose method started them.
func (c *Channel) SetHook(h obs.Hook) { c.hook = h }

func newChannel(srv *server) *Channel { return &Channel{srv: srv} }

// New returns an idle channel with its own server.
func New() *Channel { return newChannel(&server{}) }

// Sibling returns a new idle channel sharing c's load server: queued
// work is per-channel, but only one transfer can be in progress across
// the group, since transfers serialize on the one physical path. Every
// enclave after the first on a host joins the host's channel group this
// way, whether admitted at time zero or mid-run.
func (c *Channel) Sibling() *Channel { return newChannel(c.srv) }

// BusyUntil returns the cycle at which the channel becomes free. If no
// load is in progress it returns the completion time of the last one (or 0).
func (c *Channel) BusyUntil() uint64 { return c.srv.busyUntil }

// InflightDone returns the completion time of the transfer in flight.
func (c *Channel) InflightDone() (uint64, bool) {
	return c.srv.busyUntil, c.srv.busy
}

// InflightPage returns the page of the in-progress load, or mem.NoPage.
func (c *Channel) InflightPage() mem.PageID {
	if !c.srv.busy {
		return mem.NoPage
	}
	return c.srv.page
}

// Idle reports whether no load is in progress.
func (c *Channel) Idle() bool { return !c.srv.busy }

// Begin starts a preload of page for owner at cycle start, occupying the
// channel for occupancy cycles, and leaves it in the in-flight slot until
// Retire. The caller must have retired any in-progress load first (start
// must be >= BusyUntil) — the non-preemptibility rule. Its events carry
// V2 = 1, marking the transfer speculative.
func (c *Channel) Begin(page mem.PageID, start, occupancy, batch uint64, owner int) {
	c.checkFree(start)
	s := c.srv
	s.page, s.batch, s.owner, s.busy = page, batch, owner, true
	s.busyUntil = start + occupancy
	s.started++
	if c.hook != nil {
		c.hook.Emit(obs.Event{T: start, Kind: obs.KindLoadStart,
			Page: page, Batch: batch, V1: s.busyUntil, V2: 1})
	}
}

// Transfer runs a synchronous demand load (ELDU) of page, or a write-back
// burst (page mem.NoPage), from cycle start for occupancy cycles and
// returns the cycle it completes. It leaves the state of Begin followed at
// once by Retire, and emits their events with V2 = 0 and no batch, but
// never writes the in-flight slot: the requester holds the channel
// throughout. Like Begin, it panics while a load is in progress or when
// start is before BusyUntil.
func (c *Channel) Transfer(page mem.PageID, start, occupancy uint64) (done uint64) {
	c.checkFree(start)
	done = start + occupancy
	c.srv.busyUntil = done
	c.srv.started++
	if c.hook != nil {
		c.hook.Emit(obs.Event{T: start, Kind: obs.KindLoadStart, Page: page, V1: done})
		c.hook.Emit(obs.Event{T: done, Kind: obs.KindLoadComplete, Page: page})
	}
	return done
}

// checkFree panics unless the server is idle and free by start.
func (c *Channel) checkFree(start uint64) {
	if c.srv.busy {
		panic("channel: transfer begun while a load is in progress")
	}
	if start < c.srv.busyUntil {
		panic("channel: transfer begun before the channel is free (time went backwards)")
	}
}

// Retire ends the in-progress preload and returns its page and the owner
// that began it. It panics if the channel is idle; callers check Idle or
// InflightDone first.
func (c *Channel) Retire() (page mem.PageID, owner int) {
	s := c.srv
	if !s.busy {
		panic("channel: Retire on idle channel")
	}
	s.busy = false
	if c.hook != nil {
		c.hook.Emit(obs.Event{T: s.busyUntil, Kind: obs.KindLoadComplete,
			Page: s.page, Batch: s.batch, V2: 1})
	}
	return s.page, s.owner
}

// at returns the request at logical position i (0 = front). Valid only
// for 0 <= i < c.n.
func (c *Channel) at(i int) *Request {
	return &c.buf[(c.head+i)&(len(c.buf)-1)]
}

// grow doubles the ring capacity, re-linearizing the queue at head 0.
func (c *Channel) grow() {
	capacity := 2 * len(c.buf)
	if capacity == 0 {
		capacity = 16
	}
	buf := make([]Request, capacity)
	for i := 0; i < c.n; i++ {
		buf[i] = *c.at(i)
	}
	c.buf, c.head = buf, 0
}

// pushBack appends a request.
func (c *Channel) pushBack(r Request) {
	if c.n == len(c.buf) {
		c.grow()
	}
	c.buf[(c.head+c.n)&(len(c.buf)-1)] = r
	c.n++
	c.slots[uint8(r.Page)]++
}

// popFront removes and returns the front request.
func (c *Channel) popFront() Request {
	r := c.buf[c.head]
	c.head = (c.head + 1) & (len(c.buf) - 1)
	c.n--
	c.slots[uint8(r.Page)]--
	return r
}

// find returns the logical position of the first queued request for
// page, or -1. A page whose filter slot is empty is answered without a
// scan; otherwise it scans the ring as two plain segments: from head to
// the end of the buffer, then the wrapped part from the buffer's start.
func (c *Channel) find(page mem.PageID) int {
	if c.slots[uint8(page)] == 0 {
		return -1
	}
	end := c.head + c.n
	first := c.buf[c.head:min(end, len(c.buf))]
	for i := range first {
		if first[i].Page == page {
			return i
		}
	}
	if end > len(c.buf) {
		for i, r := range c.buf[:end-len(c.buf)] {
			if r.Page == page {
				return len(first) + i
			}
		}
	}
	return -1
}

// cut removes the requests at logical positions [lo, hi), shifting the
// ones behind them down so queue order is kept.
func (c *Channel) cut(lo, hi int) {
	for j := lo; j < hi; j++ {
		c.slots[uint8(c.at(j).Page)]--
	}
	for j := hi; j < c.n; j++ {
		*c.at(lo + j - hi) = *c.at(j)
	}
	c.n -= hi - lo
}

// QueueBatch appends a new predicted batch, eligible to start at cycle
// enqueued. When the backlog would exceed maxPending, whole stale batches
// are dropped from the front: an old list_to_load the worker never reached
// was produced for a fault the application has long since moved past.
// Dropping batch-at-a-time (rather than request-at-a-time) keeps every
// surviving batch intact, so a later fault on any still-queued predicted
// page finds its batch via AbortBatchContaining instead of being
// misclassified as an out-of-stream fault. If the new batch alone exceeds
// the cap, its own tail — the predictions farthest from the fault — is
// truncated. It returns the number of requests dropped.
func (c *Channel) QueueBatch(pages []mem.PageID, enqueued uint64, maxPending int) (dropped int) {
	c.lastBatchID++
	id := c.lastBatchID
	for _, p := range pages {
		c.pushBack(Request{Page: p, Batch: id, Enqueued: enqueued})
		if c.hook != nil {
			c.hook.Emit(obs.Event{T: enqueued, Kind: obs.KindPreloadQueue, Page: p, Batch: id})
		}
	}
	if maxPending <= 0 || c.n <= maxPending {
		return 0
	}
	for c.n > maxPending && c.buf[c.head].Batch != id {
		stale := c.buf[c.head].Batch
		for c.n > 0 && c.buf[c.head].Batch == stale {
			c.dropEvent(c.popFront(), enqueued, obs.AbortOverflow)
			dropped++
		}
	}
	if c.n > maxPending {
		// Only the new batch remains and it is larger than the cap:
		// keep its head (the pages nearest the fault).
		dropped += c.n - maxPending
		for i := maxPending; i < c.n; i++ {
			c.dropEvent(*c.at(i), enqueued, obs.AbortOverflow)
		}
		c.cut(maxPending, c.n)
	}
	c.aborted += uint64(dropped)
	return dropped
}

// dropEvent emits a preload-abort event for a dropped request.
func (c *Channel) dropEvent(r Request, now uint64, reason uint64) {
	if c.hook != nil {
		c.hook.Emit(obs.Event{T: now, Kind: obs.KindPreloadAbort,
			Page: r.Page, Batch: r.Batch, V1: reason})
	}
}

// AbortBatchContaining drops every queued request belonging to the batch
// that contains page — the paper's in-stream abort: a fault landing on a
// predicted page that has not been loaded yet cancels the remainder of
// that prediction. now is the cycle of the triggering fault (it stamps
// the abort events). It reports whether any batch matched. When page sits
// in several batches, the one nearest the front is cancelled. The batch
// is one contiguous run of the deque, so the abort walks out from the
// page's position to the run's ends and splices the run out.
func (c *Channel) AbortBatchContaining(page mem.PageID, now uint64) bool {
	i := c.find(page)
	if i < 0 {
		return false
	}
	batch := c.at(i).Batch
	lo, hi := i, i+1
	for lo > 0 && c.at(lo-1).Batch == batch {
		lo--
	}
	for hi < c.n && c.at(hi).Batch == batch {
		hi++
	}
	for j := lo; j < hi; j++ {
		c.dropEvent(*c.at(j), now, obs.AbortInWindow)
	}
	c.aborted += uint64(hi - lo)
	c.cut(lo, hi)
	return true
}

// RemovePending removes a single queued request for page (the SIP notify
// path demand-loads it instead) at cycle now. It reports whether a
// request was removed.
func (c *Channel) RemovePending(page mem.PageID, now uint64) bool {
	i := c.find(page)
	if i < 0 {
		return false
	}
	c.dropEvent(*c.at(i), now, obs.AbortSIP)
	c.cut(i, i+1)
	return true
}

// AbortPending drops every queued preload at cycle now and returns how
// many were dropped; used when preloading is shut down mid-run.
func (c *Channel) AbortPending(now uint64) int {
	n := c.n
	for i := 0; i < c.n; i++ {
		c.dropEvent(*c.at(i), now, obs.AbortStop)
	}
	c.aborted += uint64(n)
	c.n, c.head = 0, 0
	c.slots = [256]int32{}
	return n
}

// PendingContains reports whether page is in the queued (unstarted) batch.
func (c *Channel) PendingContains(page mem.PageID) bool { return c.find(page) >= 0 }

// PendingLen returns the number of queued preloads.
func (c *Channel) PendingLen() int { return c.n }

// PopPending removes and returns the next queued preload. The boolean is
// false when the queue is empty.
func (c *Channel) PopPending() (Request, bool) {
	if c.n == 0 {
		return Request{}, false
	}
	return c.popFront(), true
}

// PeekPending returns the next queued preload without removing it. The
// kernel's Sync uses it to test whether the head is startable before
// committing to a pop.
func (c *Channel) PeekPending() (Request, bool) {
	if c.n == 0 {
		return Request{}, false
	}
	return c.buf[c.head], true
}

// Started returns the total number of transfers begun on the (possibly
// shared) server.
func (c *Channel) Started() uint64 { return c.srv.started }

// Aborted returns the total number of queued preloads dropped.
func (c *Channel) Aborted() uint64 { return c.aborted }
