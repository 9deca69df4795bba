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
// counters) to the kernel package that drives it.
//
// The pending queue sits on the fault-servicing hot path (every Sync pops
// it, every prediction probes it), so it is a ring-buffer deque with a
// page-membership count index: PopPending, PeekPending, and
// PendingContains are O(1), and the mutating scans (batch aborts, SIP
// removals, overflow drops) run only when the index says a match exists.
package channel

import (
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// Load describes one page transfer occupying the channel.
type Load struct {
	// Page being transferred into the EPC.
	Page mem.PageID
	// Start is the cycle the channel began the transfer.
	Start uint64
	// Done is the cycle the transfer completes (Start + occupancy).
	Done uint64
	// Preload records whether the transfer was speculative (queued by a
	// predictor) rather than demanded by a fault or a SIP notification.
	Preload bool
	// Batch tags the prediction batch a preload belongs to; zero for
	// demand loads.
	Batch uint64
}

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
	inflight  Load // valid only while busy
	busy      bool
	busyUntil uint64
	started   uint64 // total transfers begun
}

// Channel is the single-server load queue. Construct with New; Sibling
// adds a channel sharing an existing one's server.
type Channel struct {
	srv *server

	// The pending preload deque: a power-of-two ring buffer holding the
	// queued-but-unstarted requests in FIFO order, plus an occurrence
	// count per queued page (a page can sit in several batches).
	buf  []Request
	head int
	n    int
	idx  map[mem.PageID]int32

	aborted     uint64 // queued preloads dropped before starting
	lastBatchID uint64
	hook        obs.Hook // nil = observability disabled
}

// SetHook installs an event hook on this channel (nil disables). In a
// shared-server group each channel carries its own hook; transfer events
// are emitted by the channel whose method started them.
func (c *Channel) SetHook(h obs.Hook) { c.hook = h }

func newChannel(srv *server) *Channel {
	return &Channel{srv: srv, idx: make(map[mem.PageID]int32)}
}

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

// Inflight returns the in-progress load, if any.
func (c *Channel) Inflight() (Load, bool) {
	if !c.srv.busy {
		return Load{}, false
	}
	return c.srv.inflight, true
}

// InflightDone returns the completion time of the transfer in flight.
// It is Inflight for the kernel's per-access sync check: that path only
// ever needs Done, and skipping the Load copy matters at fleet-scale
// step rates.
func (c *Channel) InflightDone() (uint64, bool) {
	if !c.srv.busy {
		return 0, false
	}
	return c.srv.inflight.Done, true
}

// InflightPage returns the page of the in-progress load, or mem.NoPage.
func (c *Channel) InflightPage() mem.PageID {
	if !c.srv.busy {
		return mem.NoPage
	}
	return c.srv.inflight.Page
}

// Idle reports whether no load is in progress.
func (c *Channel) Idle() bool { return !c.srv.busy }

// Begin starts a transfer of page at cycle start, occupying the channel
// for occupancy cycles. The caller must have completed any in-progress
// load first (start must be >= BusyUntil) — the non-preemptibility rule.
func (c *Channel) Begin(page mem.PageID, start, occupancy uint64, preload bool, batch uint64) Load {
	if c.srv.busy {
		panic("channel: Begin while a load is in progress")
	}
	if start < c.srv.busyUntil {
		panic("channel: Begin before the channel is free (time went backwards)")
	}
	ld := Load{Page: page, Start: start, Done: start + occupancy, Preload: preload, Batch: batch}
	c.srv.inflight = ld
	c.srv.busy = true
	c.srv.busyUntil = ld.Done
	c.srv.started++
	if c.hook != nil {
		c.hook.Emit(obs.Event{T: ld.Start, Kind: obs.KindLoadStart,
			Page: ld.Page, Batch: ld.Batch, V1: ld.Done, V2: boolV(ld.Preload)})
	}
	return ld
}

// CompleteInflight retires the in-progress load and returns it. It panics
// if the channel is idle; callers check Inflight first.
func (c *Channel) CompleteInflight() Load {
	if !c.srv.busy {
		panic("channel: CompleteInflight on idle channel")
	}
	ld := c.srv.inflight
	c.srv.busy = false
	if c.hook != nil {
		c.hook.Emit(obs.Event{T: ld.Done, Kind: obs.KindLoadComplete,
			Page: ld.Page, Batch: ld.Batch, V2: boolV(ld.Preload)})
	}
	return ld
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

// pushBack appends a request and indexes its page.
func (c *Channel) pushBack(r Request) {
	if c.n == len(c.buf) {
		c.grow()
	}
	c.buf[(c.head+c.n)&(len(c.buf)-1)] = r
	c.n++
	c.idx[r.Page]++
}

// popFront removes and returns the front request, unindexing its page.
func (c *Channel) popFront() Request {
	r := c.buf[c.head]
	c.head = (c.head + 1) & (len(c.buf) - 1)
	c.n--
	c.unindex(r.Page)
	return r
}

// unindex decrements a page's occurrence count, deleting exhausted
// entries so the index never outgrows the queue.
func (c *Channel) unindex(p mem.PageID) {
	if n := c.idx[p] - 1; n == 0 {
		delete(c.idx, p)
	} else {
		c.idx[p] = n
	}
}

// removeWhere compacts the deque in place, dropping every request for
// which drop returns true and reporting each drop (in queue order) to
// onDrop before the next is considered. Order of survivors is preserved.
func (c *Channel) removeWhere(drop func(Request) bool, onDrop func(Request)) {
	kept := 0
	for i := 0; i < c.n; i++ {
		r := *c.at(i)
		if drop(r) {
			c.unindex(r.Page)
			onDrop(r)
			continue
		}
		*c.at(kept) = r
		kept++
	}
	c.n = kept
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
		excess := c.n - maxPending
		for i := maxPending; i < c.n; i++ {
			c.dropEvent(*c.at(i), enqueued, obs.AbortOverflow)
		}
		for j := 0; j < excess; j++ {
			c.n--
			c.unindex(c.buf[(c.head+c.n)&(len(c.buf)-1)].Page)
		}
		dropped += excess
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

// boolV encodes a flag as an event value.
func boolV(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// AbortBatchContaining drops every queued request belonging to the batch
// that contains page — the paper's in-stream abort: a fault landing on a
// predicted page that has not been loaded yet cancels the remainder of
// that prediction. now is the cycle of the triggering fault (it stamps
// the abort events). It reports whether any batch matched.
func (c *Channel) AbortBatchContaining(page mem.PageID, now uint64) bool {
	if c.idx[page] == 0 {
		return false
	}
	batch := uint64(0)
	for i := 0; i < c.n; i++ {
		if c.at(i).Page == page {
			batch = c.at(i).Batch
			break
		}
	}
	c.removeWhere(
		func(r Request) bool { return r.Batch == batch },
		func(r Request) {
			c.aborted++
			c.dropEvent(r, now, obs.AbortInWindow)
		})
	return true
}

// RemovePending removes a single queued request for page (the SIP notify
// path demand-loads it instead) at cycle now. It reports whether a
// request was removed.
func (c *Channel) RemovePending(page mem.PageID, now uint64) bool {
	if c.idx[page] == 0 {
		return false
	}
	for i := 0; i < c.n; i++ {
		if c.at(i).Page != page {
			continue
		}
		c.dropEvent(*c.at(i), now, obs.AbortSIP)
		c.unindex(page)
		for j := i; j < c.n-1; j++ {
			*c.at(j) = *c.at(j + 1)
		}
		c.n--
		return true
	}
	return false
}

// AbortPending drops every queued preload at cycle now and returns how
// many were dropped; used when preloading is shut down mid-run.
func (c *Channel) AbortPending(now uint64) int {
	n := c.n
	for i := 0; i < c.n; i++ {
		c.dropEvent(*c.at(i), now, obs.AbortStop)
	}
	clear(c.idx)
	c.aborted += uint64(n)
	c.n, c.head = 0, 0
	return n
}

// PendingContains reports whether page is in the queued (unstarted) batch.
func (c *Channel) PendingContains(page mem.PageID) bool {
	return c.idx[page] > 0
}

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
