package channel

import (
	"testing"

	"sgxpreload/internal/mem"
)

func TestSiblingSharesServer(t *testing.T) {
	a := New()
	b := a.Sibling()
	// A transfer begun on a occupies b too.
	a.Begin(1, 0, 100, false, 0)
	if b.Idle() {
		t.Fatal("shared server: b idle while a is transferring")
	}
	if b.InflightPage() != 1 {
		t.Fatalf("b sees inflight %d, want 1", b.InflightPage())
	}
	if b.BusyUntil() != 100 {
		t.Fatalf("b BusyUntil = %d, want 100", b.BusyUntil())
	}
	// b can complete a's transfer (any kernel retires completions).
	ld := b.CompleteInflight()
	if ld.Page != 1 || !a.Idle() {
		t.Fatalf("cross-channel completion broken: %+v, a idle %v", ld, a.Idle())
	}
	// Begin on b must respect a's busy-until.
	b.Begin(2, 100, 50, false, 0)
	if a.BusyUntil() != 150 {
		t.Fatalf("a BusyUntil = %d, want 150", a.BusyUntil())
	}
	b.CompleteInflight()
	if a.Started() != 2 || b.Started() != 2 {
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
