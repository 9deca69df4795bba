package channel

import (
	"slices"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// FuzzPendingQueue drives the pending-preload queue with an arbitrary
// interleaving of QueueBatch, pop-and-start, peek-then-start,
// AbortBatchContaining, RemovePending, AbortPending and synchronous
// demand Transfers under MaxPending pressure, and checks the conservation
// law every request obeys: each queued request is eventually started,
// removed (the SIP notify path), or aborted with an accounted count —
// never duplicated, never lost. An abort must take the whole batch of the
// page's first queued request. After every operation a walk of the
// ring-buffer deque checks the invariant AbortBatchContaining's splice
// relies on — batch IDs form contiguous runs that strictly increase from
// front to back — that the membership filter's slot counts equal a
// recount from the deque, and that PendingContains agrees with the walk
// for every queued page and for a page that was never queued.
//
// A recorder hook runs throughout, so the fuzzer also exercises the
// observability paths, and the event stream is cross-checked against the
// counters: queue events match pages queued, abort events match aborts
// plus SIP removals, load-start events match transfers begun.
//
// The seed corpus covers the interesting collisions directly (overflow
// drops racing pops, aborting a batch that was partially popped,
// queue/peek/pop churn that wraps the ring past its capacity); the fuzzer
// explores interleavings around them.
//
// A twin channel mirrors every transfer: each started preload runs as
// Begin then Retire on both, under an owner derived from its batch that
// Retire must hand back, and each op-5 Transfer runs on the twin as Begin
// then Retire. After every op the two must agree on BusyUntil, Started
// and Idle, and at the end their load events must be identical except
// V2, which is 1 for every Begin and 0 for a Transfer — Transfer is Begin
// followed by Retire with no slot.
func FuzzPendingQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5}) // one batch, then pops
	// Overflow: enough batches to blow past maxPending, interleaved pops.
	f.Add([]byte{0, 7, 1, 2, 3, 4, 5, 6, 7, 0, 7, 10, 11, 12, 13, 14, 15, 16, 1, 1, 0, 4, 20, 21, 22, 23})
	// Abort a batch mid-pop, remove a page, then drain everything.
	f.Add([]byte{0, 4, 1, 2, 3, 4, 1, 2, 2, 0, 3, 9, 8, 7, 3, 8, 4, 1, 1, 1})
	// Overflow, then shut preloading down.
	f.Add([]byte{0, 7, 1, 2, 3, 4, 5, 6, 7, 0, 5, 10, 11, 12, 13, 14, 5, 5, 4})
	// Ring wrap-around: interleaved QueueBatch/PeekPending/PopPending
	// churn cycling far more requests than the ring's initial capacity.
	f.Add([]byte{
		0, 7, 1, 2, 3, 4, 5, 6, 7, 6, 1, 0, 7, 10, 11, 12, 13, 14, 15, 16,
		6, 6, 1, 1, 0, 5, 20, 21, 22, 23, 24, 6, 1, 6, 1, 6, 1,
		0, 4, 30, 31, 32, 33, 6, 1, 1, 1, 0, 3, 40, 41, 42, 6, 6, 1, 1, 1,
	})
	// Demand transfers between queueing, pops and a peek-then-start.
	f.Add([]byte{0, 3, 1, 2, 3, 5, 9, 2, 10, 1, 5, 200, 3, 63, 6, 5, 7, 0, 0, 1, 5, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, twin := New(), New()
		rec, twinRec := obs.NewRecorder(), obs.NewRecorder()
		c.SetHook(rec)
		twin.SetHook(twinRec)
		const maxPending = 8
		var queued, started, removed, transfers uint64
		var now uint64
		var demand []bool // per load event of c: whether a Transfer emitted it
		next := func(i *int) byte {
			if *i >= len(data) {
				return 0
			}
			b := data[*i]
			*i++
			return b
		}
		// Batch IDs never decrease along the deque, which makes each
		// batch one contiguous run with strictly increasing IDs between
		// runs. Pages are bytes, so page 256 is never queued; it shares
		// page 0's filter slot.
		checkQueue := func() {
			t.Helper()
			if want := recountSlots(c); c.slots != want {
				t.Fatalf("filter slots %v, recount from the deque %v", c.slots, want)
			}
			for i := 0; i < c.n; i++ {
				r := c.at(i)
				if i > 0 && r.Batch < c.at(i-1).Batch {
					t.Fatalf("batch %d at position %d follows batch %d", r.Batch, i, c.at(i-1).Batch)
				}
				if !c.PendingContains(r.Page) {
					t.Fatalf("page %d queued at position %d but PendingContains is false", r.Page, i)
				}
			}
			if c.PendingContains(256) {
				t.Fatal("PendingContains(256) is true for a page never queued")
			}
		}
		// preload runs r's transfer through the in-flight slot on both
		// channels, as the kernel's Sync would.
		preload := func(r Request) {
			start := max(c.BusyUntil(), r.Enqueued)
			owner := int(r.Batch % 3)
			for _, ch := range []*Channel{c, twin} {
				ch.Begin(r.Page, start, 100, r.Batch, owner)
				if page, o := ch.Retire(); page != r.Page || o != owner {
					t.Fatalf("Retire = (%d, %d), began preload of %d for owner %d", page, o, r.Page, owner)
				}
			}
			demand = append(demand, false, false)
			started++
		}
		for i := 0; i < len(data); {
			now++
			prevAborted := c.Aborted()
			switch next(&i) % 7 {
			case 0: // queue a batch of 1..8 pages
				k := int(next(&i)%8) + 1
				pages := make([]mem.PageID, k)
				for j := range pages {
					pages[j] = mem.PageID(next(&i))
				}
				before := c.PendingLen()
				dropped := c.QueueBatch(pages, now, maxPending)
				queued += uint64(k)
				if got := c.PendingLen(); got > maxPending {
					t.Fatalf("PendingLen = %d after QueueBatch, cap is %d", got, maxPending)
				}
				if before+k-dropped != c.PendingLen() {
					t.Fatalf("QueueBatch accounting: %d before + %d queued - %d dropped != %d pending",
						before, k, dropped, c.PendingLen())
				}
				if c.Aborted() != prevAborted+uint64(dropped) {
					t.Fatalf("Aborted moved by %d, QueueBatch reported %d dropped",
						c.Aborted()-prevAborted, dropped)
				}
			case 1: // pop the head and run its transfer, as the kernel would
				before := c.PendingLen()
				if r, ok := c.PopPending(); ok {
					if before == 0 {
						t.Fatal("PopPending succeeded on an empty queue")
					}
					if r.Batch == 0 {
						t.Fatal("popped request has the zero batch tag")
					}
					preload(r)
				} else if before != 0 {
					t.Fatalf("PopPending failed with %d pending", before)
				}
			case 2:
				page := mem.PageID(next(&i))
				had := c.PendingContains(page)
				var batch uint64 // the batch of page's first request; IDs start at 1
				for j := 0; j < c.n && batch == 0; j++ {
					if c.at(j).Page == page {
						batch = c.at(j).Batch
					}
				}
				if c.AbortBatchContaining(page, now) != had {
					t.Fatalf("AbortBatchContaining(%d) disagrees with PendingContains", page)
				}
				for j := 0; j < c.n; j++ {
					if batch != 0 && c.at(j).Batch == batch {
						t.Fatalf("aborting page %d left page %d of its batch %d queued", page, c.at(j).Page, batch)
					}
				}
				// One abort cancels one batch; duplicates of the page may
				// sit in other batches. Repeating must drain them all.
				for n := 0; c.PendingContains(page); n++ {
					if n > maxPending {
						t.Fatalf("aborting page %d does not terminate", page)
					}
					if !c.AbortBatchContaining(page, now) {
						t.Fatalf("page %d pending but AbortBatchContaining found no batch", page)
					}
				}
			case 3:
				page := mem.PageID(next(&i))
				had := c.PendingContains(page)
				if c.RemovePending(page, now) {
					removed++
					if !had {
						t.Fatalf("RemovePending(%d) succeeded but PendingContains was false", page)
					}
				} else if had {
					t.Fatalf("RemovePending(%d) failed but the page was pending", page)
				}
			case 4:
				before := c.PendingLen()
				if n := c.AbortPending(now); n != before {
					t.Fatalf("AbortPending dropped %d, had %d pending", n, before)
				}
				if c.PendingLen() != 0 {
					t.Fatal("queue not empty after AbortPending")
				}
			case 6: // peek, then start the head as the kernel's Sync would
				before := c.PendingLen()
				r, ok := c.PeekPending()
				if ok != (before > 0) {
					t.Fatalf("PeekPending = %v with %d pending", ok, before)
				}
				if !ok {
					break
				}
				if c.PendingLen() != before {
					t.Fatal("PeekPending mutated the queue")
				}
				popped, popOK := c.PopPending()
				if !popOK || popped != r {
					t.Fatalf("PopPending = (%v, %v) after PeekPending = %v", popped, popOK, r)
				}
				preload(r)
			case 5: // a demand load: one synchronous Transfer
				page := mem.PageID(next(&i))
				start := c.BusyUntil() + uint64(next(&i)%4)
				occ := 50 + uint64(next(&i)%64)
				if done := c.Transfer(page, start, occ); done != start+occ {
					t.Fatalf("Transfer(%d, %d, %d) = %d", page, start, occ, done)
				}
				twin.Begin(page, start, occ, 0, 0)
				twin.Retire()
				demand = append(demand, true, true)
				transfers++
			}
			if c.BusyUntil() != twin.BusyUntil() || c.Started() != twin.Started() || c.Idle() != twin.Idle() {
				t.Fatalf("channel (BusyUntil %d, Started %d, idle %v) != Begin+Retire twin (%d, %d, %v)",
					c.BusyUntil(), c.Started(), c.Idle(), twin.BusyUntil(), twin.Started(), twin.Idle())
			}
			checkQueue()
			if c.Aborted() < prevAborted {
				t.Fatalf("Aborted went backwards: %d -> %d", prevAborted, c.Aborted())
			}
			if queued != started+removed+c.Aborted()+uint64(c.PendingLen()) {
				t.Fatalf("conservation violated: queued %d != started %d + removed %d + aborted %d + pending %d",
					queued, started, removed, c.Aborted(), c.PendingLen())
			}
		}
		if got := c.Started(); got != started+transfers {
			t.Fatalf("channel Started() = %d, harness began %d preloads and %d transfers",
				got, started, transfers)
		}
		// The event stream must tell the same story as the counters.
		counts := map[obs.Kind]uint64{}
		for _, e := range rec.Events() {
			counts[e.Kind]++
		}
		if counts[obs.KindPreloadQueue] != queued {
			t.Fatalf("%d queue events, queued %d", counts[obs.KindPreloadQueue], queued)
		}
		if want := c.Aborted() + removed; counts[obs.KindPreloadAbort] != want {
			t.Fatalf("%d abort events, want %d (aborted %d + removed %d)",
				counts[obs.KindPreloadAbort], want, c.Aborted(), removed)
		}
		if counts[obs.KindLoadStart] != started+transfers || counts[obs.KindLoadComplete] != started+transfers {
			t.Fatalf("%d start / %d complete events, began %d preloads and %d transfers",
				counts[obs.KindLoadStart], counts[obs.KindLoadComplete], started, transfers)
		}
		var loads []obs.Event
		for _, e := range rec.Events() {
			if e.Kind == obs.KindLoadStart || e.Kind == obs.KindLoadComplete {
				loads = append(loads, e)
			}
		}
		want := slices.Clone(twinRec.Events())
		for i := range want {
			if want[i].V2 != 1 {
				t.Fatalf("twin load event %d = %+v, Begin must emit V2 = 1", i, want[i])
			}
			if demand[i] {
				want[i].V2 = 0
			}
		}
		if !slices.Equal(loads, want) {
			t.Fatalf("load events differ from the Begin+Retire twin:\n  got  %v\n  want %v", loads, want)
		}
	})
}
