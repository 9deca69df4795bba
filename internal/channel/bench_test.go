package channel

import (
	"fmt"
	"testing"

	"sgxpreload/internal/mem"
)

// BenchmarkPendingQueue measures the per-fault cost of the pending-queue
// hot path at several steady-state backlog depths: the membership probes
// the kernel's predict filter issues, one QueueBatch, and the pops the
// preload worker performs. Pops are O(1) on the ring-buffer deque; each
// probe of a fresh page is a miss that scans the whole backlog, so ns/op
// grows with depth. The kernel caps the backlog at MaxPending (64),
// which bounds the scan: depth=512 is deeper than any queue the
// kernel builds and shows the cost the cap rules out.
func BenchmarkPendingQueue(b *testing.B) {
	for _, depth := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			const batchLen = 4
			c := New()
			var page mem.PageID
			batch := make([]mem.PageID, batchLen)
			fill := func() {
				for j := range batch {
					batch[j] = page
					page++
				}
			}
			for c.PendingLen() < depth {
				fill()
				c.QueueBatch(batch, 0, depth+batchLen)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fill()
				for _, p := range batch {
					if c.PendingContains(p) {
						b.Fatal("fresh page already pending")
					}
				}
				c.QueueBatch(batch, 0, depth+batchLen)
				for j := 0; j < batchLen; j++ {
					if _, ok := c.PopPending(); !ok {
						b.Fatal("queue drained mid-benchmark")
					}
				}
			}
		})
	}
}

// BenchmarkPendingMembership isolates PendingContains, the probe predict
// issues once per predicted page on every fault, at the default
// MaxPending depth of 64: one hit at the back of the queue and one miss,
// the two probes that scan all of it.
func BenchmarkPendingMembership(b *testing.B) {
	const depth = 64
	c := New()
	pages := make([]mem.PageID, depth)
	for i := range pages {
		pages[i] = mem.PageID(i)
	}
	c.QueueBatch(pages, 0, depth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.PendingContains(mem.PageID(depth - 1)) {
			b.Fatal("tail page not pending")
		}
		if c.PendingContains(mem.PageID(depth)) {
			b.Fatal("absent page reported pending")
		}
	}
}
