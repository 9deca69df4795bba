package channel

import (
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// FuzzPendingQueue drives the pending-preload queue with an arbitrary
// interleaving of QueueBatch, pop-and-start, peek-then-start,
// AbortBatchContaining, RemovePending, and AbortPending under MaxPending
// pressure, and checks the conservation
// law every request obeys: each queued request is eventually started,
// removed (the SIP notify path), or aborted with an accounted count —
// never duplicated, never lost. After every operation the page-membership
// index is cross-checked against a walk of the ring-buffer deque, so the
// two structures can never drift apart unnoticed.
//
// A recorder hook runs throughout, so the fuzzer also exercises the
// observability paths, and the event stream is cross-checked against the
// counters: queue events match pages queued, abort events match aborts
// plus SIP removals, load-start events match transfers begun.
//
// The seed corpus covers the interesting collisions directly (overflow
// drops racing pops, aborting a batch that was partially popped,
// queue/peek/pop churn that wraps the ring past its capacity); the fuzzer
// explores interleavings around them. Op 5 is retired and does nothing,
// so the other ops keep their numbers and saved inputs keep their
// meaning.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New()
		rec := obs.NewRecorder()
		c.SetHook(rec)
		const maxPending = 8
		var queued, started, removed uint64
		var now uint64
		next := func(i *int) byte {
			if *i >= len(data) {
				return 0
			}
			b := data[*i]
			*i++
			return b
		}
		// The index and the deque must agree exactly: same pages, same
		// occurrence counts (a page can sit in several batches).
		checkIndex := func() {
			t.Helper()
			counts := make(map[mem.PageID]int32, c.n)
			for i := 0; i < c.n; i++ {
				counts[c.at(i).Page]++
			}
			if len(counts) != len(c.idx) {
				t.Fatalf("index holds %d pages, deque holds %d distinct", len(c.idx), len(counts))
			}
			for p, want := range counts {
				if got := c.idx[p]; got != want {
					t.Fatalf("index count for page %d = %d, deque has %d", p, got, want)
				}
			}
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
					start := c.BusyUntil()
					if r.Enqueued > start {
						start = r.Enqueued
					}
					c.Begin(r.Page, start, 100, true, r.Batch)
					c.CompleteInflight()
					started++
				} else if before != 0 {
					t.Fatalf("PopPending failed with %d pending", before)
				}
			case 2:
				page := mem.PageID(next(&i))
				had := c.PendingContains(page)
				if c.AbortBatchContaining(page, now) != had {
					t.Fatalf("AbortBatchContaining(%d) disagrees with PendingContains", page)
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
				start := c.BusyUntil()
				if r.Enqueued > start {
					start = r.Enqueued
				}
				c.Begin(r.Page, start, 100, true, r.Batch)
				c.CompleteInflight()
				started++
			}
			checkIndex()
			if c.Aborted() < prevAborted {
				t.Fatalf("Aborted went backwards: %d -> %d", prevAborted, c.Aborted())
			}
			if queued != started+removed+c.Aborted()+uint64(c.PendingLen()) {
				t.Fatalf("conservation violated: queued %d != started %d + removed %d + aborted %d + pending %d",
					queued, started, removed, c.Aborted(), c.PendingLen())
			}
		}
		if got := c.Started(); got != started {
			t.Fatalf("channel Started() = %d, harness began %d transfers", got, started)
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
		if counts[obs.KindLoadStart] != started || counts[obs.KindLoadComplete] != started {
			t.Fatalf("%d start / %d complete events, began %d transfers",
				counts[obs.KindLoadStart], counts[obs.KindLoadComplete], started)
		}
	})
}
