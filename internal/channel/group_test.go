package channel

import (
	"testing"

	"sgxpreload/internal/mem"
)

func TestSiblingSharesServer(t *testing.T) {
	a := New()
	b := a.Sibling()
	// A preload begun on a for owner 2 occupies b too.
	a.Begin(1, 0, 100, 0, 2)
	if b.Idle() {
		t.Fatal("shared server: b idle while a is transferring")
	}
	if b.InflightPage() != 1 {
		t.Fatalf("b sees inflight %d, want 1", b.InflightPage())
	}
	if b.BusyUntil() != 100 {
		t.Fatalf("b BusyUntil = %d, want 100", b.BusyUntil())
	}
	// b can retire a's preload (any kernel retires completions), and
	// learns the owner a began it for.
	if page, owner := b.Retire(); page != 1 || owner != 2 || !a.Idle() {
		t.Fatalf("cross-channel completion broken: page %d, owner %d, a idle %v", page, owner, a.Idle())
	}
	// Begin on b must respect a's busy-until.
	b.Begin(2, 100, 50, 0, 0)
	if a.BusyUntil() != 150 {
		t.Fatalf("a BusyUntil = %d, want 150", a.BusyUntil())
	}
	b.Retire()
	// So must a synchronous transfer on a.
	if done := a.Transfer(3, 150, 25); done != 175 || b.BusyUntil() != 175 {
		t.Fatalf("Transfer on a: done %d, b BusyUntil %d, want 175", done, b.BusyUntil())
	}
	if a.Started() != 3 || b.Started() != 3 {
		t.Fatalf("Started() not shared: %d, %d", a.Started(), b.Started())
	}
}

func TestSiblingQueuesArePrivate(t *testing.T) {
	a := New()
	b := a.Sibling()
	a.QueueBatch([]mem.PageID{5}, 0, 32)
	if b.PendingLen() != 0 {
		t.Fatal("pending queue leaked across channels")
	}
	if a.PendingLen() != 1 {
		t.Fatalf("a pending = %d, want 1", a.PendingLen())
	}
	if b.PendingContains(5) {
		t.Fatal("b sees a's pending request")
	}
}
