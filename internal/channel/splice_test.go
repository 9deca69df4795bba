package channel

import (
	"math/rand"
	"slices"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// refAbortBatchContaining is the predicate-filter abort the splice
// replaced, kept as the differential oracle: find the first request for
// page, then drop every request carrying its batch ID wherever it sits,
// keeping the survivors in order. It works on a copy of the queue.
func refAbortBatchContaining(q []Request, page mem.PageID) (kept, dropped []Request, ok bool) {
	i := slices.IndexFunc(q, func(r Request) bool { return r.Page == page })
	if i < 0 {
		return slices.Clone(q), nil, false
	}
	batch := q[i].Batch
	for _, r := range q {
		if r.Batch == batch {
			dropped = append(dropped, r)
		} else {
			kept = append(kept, r)
		}
	}
	return kept, dropped, true
}

// pendingRequests copies the deque front to back.
func pendingRequests(c *Channel) []Request {
	q := make([]Request, c.n)
	for i := range q {
		q[i] = *c.at(i)
	}
	return q
}

// TestAbortSpliceDifferential drives seeded random sequences of every
// pending-queue operation — QueueBatch under overflow drops and tail
// truncation with pages repeated across batches, PopPending, PeekPending,
// RemovePending and AbortPending, on a ring that wraps — and after each
// AbortBatchContaining compares the splice with the predicate-filter
// reference: the surviving requests in order, the Aborted count, the
// return value, and the abort events in order. After every operation the
// membership filter's slot counts must equal a recount from the deque.
//
// The harness also counts the cases the splice could get wrong and
// requires each to occur: an abort on a wrapped ring, and an abort whose
// page sits behind the first surviving request of a batch that lost its
// front to a pop, so the splice must walk back to the start of the run.
func TestAbortSpliceDifferential(t *testing.T) {
	const seeds, ops, pageRange = 200, 1500, 24
	var aborts, wrapped, walkBackAfterPop int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxPending := []int{5, 12, 16, 40}[seed%4]
		c := New()
		rec := obs.NewRecorder()
		c.SetHook(rec)
		popped := map[uint64]bool{} // batches that lost a request off the front
		for op := 0; op < ops; op++ {
			now := uint64(op)
			page := mem.PageID(rng.Intn(pageRange))
			switch k := rng.Intn(20); {
			case k < 6: // QueueBatch, sometimes larger than the cap
				pages := make([]mem.PageID, 1+rng.Intn(10))
				for j := range pages {
					pages[j] = mem.PageID(rng.Intn(pageRange))
				}
				c.QueueBatch(pages, now, maxPending)
			case k < 9:
				if r, ok := c.PopPending(); ok {
					popped[r.Batch] = true
				}
			case k < 11:
				if r, ok := c.PeekPending(); ok {
					c.PopPending()
					popped[r.Batch] = true
				}
			case k < 13:
				c.RemovePending(page, now)
			case k < 14:
				if rng.Intn(8) == 0 {
					c.AbortPending(now)
				}
			default:
				before := pendingRequests(c)
				kept, dropped, wantOK := refAbortBatchContaining(before, page)
				if wantOK {
					aborts++
					if c.head+c.n > len(c.buf) {
						wrapped++
					}
					batch := dropped[0].Batch
					first := slices.IndexFunc(before, func(r Request) bool { return r.Batch == batch })
					found := slices.IndexFunc(before, func(r Request) bool { return r.Page == page })
					if popped[batch] && found > first {
						walkBackAfterPop++
					}
				}
				prevAborted, prevEvents := c.Aborted(), rec.Len()
				if got := c.AbortBatchContaining(page, now); got != wantOK {
					t.Fatalf("seed %d op %d: AbortBatchContaining(%d) = %v, reference %v", seed, op, page, got, wantOK)
				}
				if got := pendingRequests(c); !slices.Equal(got, kept) {
					t.Fatalf("seed %d op %d: abort of page %d left %v, reference %v (queue was %v)",
						seed, op, page, got, kept, before)
				}
				if got := c.Aborted() - prevAborted; got != uint64(len(dropped)) {
					t.Fatalf("seed %d op %d: Aborted moved by %d, reference dropped %d", seed, op, got, len(dropped))
				}
				events := rec.Events()[prevEvents:]
				want := make([]obs.Event, len(dropped))
				for j, r := range dropped {
					want[j] = obs.Event{T: now, Kind: obs.KindPreloadAbort,
						Page: r.Page, Batch: r.Batch, V1: obs.AbortInWindow}
				}
				if !slices.Equal(events, want) {
					t.Fatalf("seed %d op %d: abort events %v, reference %v", seed, op, events, want)
				}
			}
			if want := recountSlots(c); c.slots != want {
				t.Fatalf("seed %d op %d: filter slots %v, recount from the deque %v", seed, op, c.slots, want)
			}
		}
	}
	if aborts == 0 || wrapped == 0 || walkBackAfterPop == 0 {
		t.Fatalf("coverage: %d aborts, %d on a wrapped ring, %d walking back after a pop; each must be > 0",
			aborts, wrapped, walkBackAfterPop)
	}
	t.Logf("%d aborts compared: %d on a wrapped ring, %d walking back after a pop",
		aborts, wrapped, walkBackAfterPop)
}
