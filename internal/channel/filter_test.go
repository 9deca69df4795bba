package channel

import (
	"testing"

	"sgxpreload/internal/mem"
)

// recountSlots rebuilds the membership filter's slot counts from the
// deque.
func recountSlots(c *Channel) [256]int32 {
	var slots [256]int32
	for i := 0; i < c.n; i++ {
		slots[uint8(c.at(i).Page)]++
	}
	return slots
}

// queuedWalk reports whether page is queued, by walking the deque.
func queuedWalk(c *Channel, page mem.PageID) bool {
	for i := 0; i < c.n; i++ {
		if c.at(i).Page == page {
			return true
		}
	}
	return false
}

// TestPendingFilterSaturatedSlot piles more than 255 queued requests into
// one filter slot under a cap far above the kernel's MaxPending: batches
// of four pages congruent to 7 mod 256, repeated across batches, plus one
// page of the neighbouring slot. The slot passes exactly 256 while
// filling and again while pops drain it one request at a time, so a
// counter that wrapped at a byte would read empty with pages queued. The
// queue is then drained through a mix of pops, in-stream aborts and SIP
// removals, and finally AbortPending. After every step the slot counts
// must equal a recount from the deque, and PendingContains must agree
// with a walk for every page of both slots and for slot-7 pages that were
// never queued.
func TestPendingFilterSaturatedSlot(t *testing.T) {
	const (
		slot       = 7
		batches    = 80
		maxPending = 1 << 12
		distinct   = 50 // distinct slot-7 pages; each recurs across batches
	)
	page := func(j int) mem.PageID { return mem.PageID(slot + 256*j) }
	var probes []mem.PageID
	for j := 0; j < distinct+5; j++ { // the last five are never queued
		probes = append(probes, page(j), page(j)+1)
	}
	c := New()
	check := func(step string) {
		t.Helper()
		if want := recountSlots(c); c.slots != want {
			t.Fatalf("%s: filter slots disagree with a recount (slot %d: %d vs %d)",
				step, slot, c.slots[slot], want[slot])
		}
		for _, p := range probes {
			if got, want := c.PendingContains(p), queuedWalk(c, p); got != want {
				t.Fatalf("%s: PendingContains(%d) = %v, walk says %v", step, p, got, want)
			}
		}
	}
	for b := 0; b < batches; b++ {
		pages := []mem.PageID{page(b * 3 % distinct), page((b*3 + 1) % distinct),
			page((b*7 + 2) % distinct), page((b*11 + 5) % distinct), page(b%distinct) + 1}
		if c.QueueBatch(pages, uint64(b), maxPending) != 0 {
			t.Fatal("QueueBatch dropped requests under a cap it does not reach")
		}
		check("queue")
	}
	if got := c.slots[slot]; got <= 255 {
		t.Fatalf("slot %d holds %d requests, want more than 255", slot, got)
	}
	// Drain: pop one request at a time until the slot is back under
	// 250, then cycle pop, abort and removal, leaving the last tenth to
	// AbortPending.
	for c.slots[slot] >= 250 {
		if _, ok := c.PopPending(); !ok {
			t.Fatal("PopPending failed on a non-empty queue")
		}
		check("pop")
	}
	for step := 0; c.PendingLen() > batches*5/10; step++ {
		switch step % 3 {
		case 0:
			if _, ok := c.PopPending(); !ok {
				t.Fatal("PopPending failed on a non-empty queue")
			}
			check("pop")
		case 1:
			p := c.at(c.n / 2).Page
			if !c.AbortBatchContaining(p, uint64(step)) {
				t.Fatalf("AbortBatchContaining(%d) found nothing", p)
			}
			check("abort")
		case 2:
			p := c.at(c.n - 1).Page
			if !c.RemovePending(p, uint64(step)) {
				t.Fatalf("RemovePending(%d) found nothing", p)
			}
			check("remove")
		}
	}
	c.AbortPending(0)
	check("abort-pending")
	if c.slots != ([256]int32{}) {
		t.Fatal("filter slots non-zero on an empty queue")
	}
}
