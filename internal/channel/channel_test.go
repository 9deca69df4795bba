package channel

import (
	"testing"

	"sgxpreload/internal/mem"
)

func TestBeginComplete(t *testing.T) {
	c := New()
	if !c.Idle() {
		t.Fatal("new channel not idle")
	}
	ld := c.Begin(5, 100, 44000, false, 0)
	if ld.Done != 44100 {
		t.Fatalf("Done = %d, want 44100", ld.Done)
	}
	if c.Idle() {
		t.Fatal("channel idle during transfer")
	}
	if got := c.InflightPage(); got != 5 {
		t.Fatalf("InflightPage() = %d, want 5", got)
	}
	done := c.CompleteInflight()
	if done.Page != 5 || !c.Idle() {
		t.Fatalf("CompleteInflight() = %+v, idle=%v", done, c.Idle())
	}
	if c.Started() != 1 {
		t.Fatalf("Started() = %d, want 1", c.Started())
	}
}

func TestBeginWhileBusyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Begin while busy did not panic")
		}
	}()
	c := New()
	c.Begin(1, 0, 100, false, 0)
	c.Begin(2, 200, 100, false, 0)
}

func TestBeginBeforeFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Begin before channel free did not panic")
		}
	}()
	c := New()
	c.Begin(1, 0, 100, false, 0)
	c.CompleteInflight()
	c.Begin(2, 50, 100, false, 0) // channel busy until 100
}

func TestCompleteIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CompleteInflight on idle channel did not panic")
		}
	}()
	New().CompleteInflight()
}

func TestInflightOnIdle(t *testing.T) {
	c := New()
	if _, ok := c.Inflight(); ok {
		t.Fatal("Inflight() = ok on idle channel")
	}
	if got := c.InflightPage(); got != mem.NoPage {
		t.Fatalf("InflightPage() = %d, want NoPage", got)
	}
}

func TestQueueBatchFIFO(t *testing.T) {
	c := New()
	c.QueueBatch([]mem.PageID{1, 2, 3}, 10, 32)
	c.QueueBatch([]mem.PageID{7, 8}, 20, 32)
	want := []mem.PageID{1, 2, 3, 7, 8}
	for i, w := range want {
		r, ok := c.PopPending()
		if !ok || r.Page != w {
			t.Fatalf("pop %d = (%v, %v), want page %d", i, r, ok, w)
		}
	}
	if _, ok := c.PopPending(); ok {
		t.Fatal("pop on drained queue succeeded")
	}
}

func TestQueueBatchDistinctIDs(t *testing.T) {
	c := New()
	c.QueueBatch([]mem.PageID{1}, 0, 32)
	c.QueueBatch([]mem.PageID{2}, 0, 32)
	a, _ := c.PopPending()
	b, _ := c.PopPending()
	if a.Batch == b.Batch {
		t.Fatalf("batches share id %d", a.Batch)
	}
}

func TestQueueBatchCapDropsWholeBatches(t *testing.T) {
	cases := []struct {
		name    string
		batches [][]mem.PageID // queued in order; the cap applies throughout
		cap     int
		dropped int          // drops expected from the final QueueBatch
		want    []mem.PageID // surviving queue, front first
	}{
		{"under cap",
			[][]mem.PageID{{1, 2, 3}, {4, 5}}, 8, 0, []mem.PageID{1, 2, 3, 4, 5}},
		{"exactly at cap",
			[][]mem.PageID{{1, 2}, {3, 4}}, 4, 0, []mem.PageID{1, 2, 3, 4}},
		{"stale batch dropped whole, never split",
			[][]mem.PageID{{1, 2, 3, 4}, {5, 6, 7, 8}}, 6, 4, []mem.PageID{5, 6, 7, 8}},
		{"several stale batches dropped",
			[][]mem.PageID{{1, 2}, {3, 4}, {5, 6, 7, 8}}, 5, 4, []mem.PageID{5, 6, 7, 8}},
		{"whole batch goes even when one request would do",
			[][]mem.PageID{{1, 2, 3, 4}, {5, 6}}, 5, 4, []mem.PageID{5, 6}},
		{"oversized new batch keeps its head",
			[][]mem.PageID{{1, 2, 3, 4, 5, 6, 7, 8}}, 6, 2, []mem.PageID{1, 2, 3, 4, 5, 6}},
		{"stale dropped then oversized new tail trimmed",
			[][]mem.PageID{{1, 2}, {3, 4, 5, 6}}, 3, 3, []mem.PageID{3, 4, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			var dropped int
			for _, b := range tc.batches {
				dropped = c.QueueBatch(b, 0, tc.cap)
			}
			if dropped != tc.dropped {
				t.Errorf("dropped = %d, want %d", dropped, tc.dropped)
			}
			if got := c.Aborted(); got != uint64(tc.dropped) {
				t.Errorf("Aborted() = %d, want %d", got, tc.dropped)
			}
			for i, w := range tc.want {
				r, ok := c.PopPending()
				if !ok || r.Page != w {
					t.Fatalf("pop %d = (%v, %v), want page %d", i, r, ok, w)
				}
			}
			if c.PendingLen() != 0 {
				t.Fatalf("queue not drained: %d left", c.PendingLen())
			}
		})
	}
}

func TestQueueBatchTruncationKeepsBatchesAbortable(t *testing.T) {
	// Regression: request-at-a-time truncation used to split the oldest
	// surviving batch, so a later fault on one of its still-queued pages
	// could find the batch half-gone (or, for the dropped half, miss
	// AbortBatchContaining entirely and be misclassified as out-of-stream).
	c := New()
	c.QueueBatch([]mem.PageID{1, 2, 3, 4}, 0, 32)
	c.QueueBatch([]mem.PageID{10, 11, 12, 13}, 0, 32)
	if dropped := c.QueueBatch([]mem.PageID{20, 21}, 0, 6); dropped != 4 {
		t.Fatalf("dropped = %d, want the whole {1..4} batch", dropped)
	}
	for _, p := range []mem.PageID{10, 11, 12, 13, 20, 21} {
		if !c.PendingContains(p) {
			t.Fatalf("page %d missing after truncation", p)
		}
	}
	if !c.AbortBatchContaining(11, 0) {
		t.Fatal("fault on a surviving predicted page missed its batch")
	}
	if c.PendingContains(10) || c.PendingContains(13) {
		t.Fatal("aborted batch left requests behind")
	}
	if !c.PendingContains(20) || !c.PendingContains(21) {
		t.Fatal("unrelated batch lost requests")
	}
}

func TestAbortBatchContaining(t *testing.T) {
	c := New()
	c.QueueBatch([]mem.PageID{1, 2, 3}, 0, 32)
	c.QueueBatch([]mem.PageID{9, 10}, 0, 32)
	if !c.AbortBatchContaining(2, 0) {
		t.Fatal("AbortBatchContaining(2) = false")
	}
	// Batch {1,2,3} gone; {9,10} intact.
	want := []mem.PageID{9, 10}
	for _, w := range want {
		r, ok := c.PopPending()
		if !ok || r.Page != w {
			t.Fatalf("after abort got (%v, %v), want %d", r, ok, w)
		}
	}
	if c.AbortBatchContaining(99, 0) {
		t.Fatal("AbortBatchContaining of absent page = true")
	}
}

func TestRemovePending(t *testing.T) {
	c := New()
	c.QueueBatch([]mem.PageID{1, 2, 3}, 0, 32)
	if !c.RemovePending(2, 0) {
		t.Fatal("RemovePending(2) = false")
	}
	if c.RemovePending(2, 0) {
		t.Fatal("RemovePending(2) twice = true")
	}
	if c.PendingLen() != 2 {
		t.Fatalf("PendingLen() = %d, want 2", c.PendingLen())
	}
	if !c.PendingContains(1) || !c.PendingContains(3) || c.PendingContains(2) {
		t.Fatal("pending set wrong after removal")
	}
}

func TestAbortPending(t *testing.T) {
	c := New()
	c.QueueBatch([]mem.PageID{1, 2, 3}, 0, 32)
	if n := c.AbortPending(0); n != 3 {
		t.Fatalf("AbortPending() = %d, want 3", n)
	}
	if c.PendingLen() != 0 {
		t.Fatal("pending not empty after AbortPending")
	}
}

func TestPeekPending(t *testing.T) {
	c := New()
	if _, ok := c.PeekPending(); ok {
		t.Fatal("PeekPending on empty queue = ok")
	}
	c.QueueBatch([]mem.PageID{4, 5}, 7, 32)
	r, ok := c.PeekPending()
	if !ok || r.Page != 4 || r.Enqueued != 7 {
		t.Fatalf("PeekPending = (%v, %v), want head page 4", r, ok)
	}
	if c.PendingLen() != 2 {
		t.Fatalf("PeekPending consumed the queue: len %d", c.PendingLen())
	}
	p, _ := c.PopPending()
	if p != r {
		t.Fatalf("PopPending = %v after PeekPending = %v", p, r)
	}
}

// TestRingWrapAround cycles many more requests than the ring's capacity
// through interleaved queue/peek/pop so the head index wraps repeatedly,
// and checks strict FIFO order and membership at every step.
func TestRingWrapAround(t *testing.T) {
	c := New()
	var nextIn, nextOut mem.PageID
	queue := func(k int) {
		pages := make([]mem.PageID, k)
		for i := range pages {
			pages[i] = nextIn
			nextIn++
		}
		c.QueueBatch(pages, 0, 0) // no cap: nothing may be dropped
	}
	pop := func() {
		head, ok := c.PeekPending()
		if !ok || head.Page != nextOut {
			t.Fatalf("PeekPending = (%v, %v), want page %d", head, ok, nextOut)
		}
		r, ok := c.PopPending()
		if !ok || r.Page != nextOut {
			t.Fatalf("PopPending = (%v, %v), want page %d", r, ok, nextOut)
		}
		nextOut++
	}
	queue(3)
	for round := 0; round < 200; round++ {
		queue(1 + round%5)
		if !c.PendingContains(nextOut) || c.PendingContains(nextIn) {
			t.Fatalf("round %d: membership wrong at queue depth %d", round, c.PendingLen())
		}
		for c.PendingLen() > 3 {
			pop()
		}
	}
	for c.PendingLen() > 0 {
		pop()
	}
	if nextOut != nextIn {
		t.Fatalf("drained %d pages, queued %d", nextOut, nextIn)
	}
	if c.Aborted() != 0 {
		t.Fatalf("Aborted = %d on an uncapped queue", c.Aborted())
	}
}

func TestBusyUntilMonotone(t *testing.T) {
	c := New()
	var last uint64
	for i := 0; i < 100; i++ {
		start := c.BusyUntil() + uint64(i%7)
		c.Begin(mem.PageID(i), start, 1000, i%2 == 0, 0)
		c.CompleteInflight()
		if c.BusyUntil() < last {
			t.Fatalf("BusyUntil went backwards: %d < %d", c.BusyUntil(), last)
		}
		last = c.BusyUntil()
	}
}
