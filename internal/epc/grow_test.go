package epc

import (
	"fmt"
	"strings"
	"testing"

	"sgxpreload/internal/mem"
)

// TestGrowPreservesState: growing the page space keeps residency and
// bits intact, and the new pages are loadable.
func TestGrowPreservesState(t *testing.T) {
	e, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []mem.PageID{1, 5, 7} {
		if err := e.Load(p, 0, p == 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Load(9, 0, false); err == nil {
		t.Fatal("page 9 loadable before growth")
	}

	if err := e.Grow(16); err != nil {
		t.Fatal(err)
	}
	if e.Pages() != 16 {
		t.Fatalf("Pages() = %d after Grow(16)", e.Pages())
	}
	if !e.Present(1) || !e.Present(5) || !e.Present(7) {
		t.Error("residency lost across Grow")
	}
	if !e.Preloaded(5) {
		t.Error("preload bit lost across Grow")
	}
	if e.Present(9) {
		t.Error("new page 9 present after growth")
	}
	if err := e.Load(9, 0, false); err != nil {
		t.Errorf("page 9 not loadable after growth: %v", err)
	}
	if !e.Present(9) {
		t.Error("page 9 absent after its post-growth load")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}

	if err := e.Grow(16); err != nil {
		t.Errorf("same-size Grow: %v", err)
	}
	if err := e.Grow(8); err == nil {
		t.Error("shrinking Grow must error")
	}
}

// TestGrowExtendsPageTable: growth extends the page table in place,
// keeping every mapping and leaving the new pages absent.
func TestGrowExtendsPageTable(t *testing.T) {
	e, err := New(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(3, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := e.Grow(1024); err != nil {
		t.Fatal(err)
	}
	if len(e.pt) != 1024 {
		t.Errorf("page table covers %d pages, want 1024", len(e.pt))
	}
	if !e.Present(3) {
		t.Error("mapping lost in growth")
	}
	for p := mem.PageID(16); p < 1024; p++ {
		if e.Present(p) {
			t.Fatalf("new page %d present after growth", p)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestPageSpaceBound: New and Grow accept page spaces up to MaxPages, the
// old 2²²-page array bound included, and reject larger ones with an error
// naming both sizes; a rejected Grow leaves the EPC as it was.
func TestPageSpaceBound(t *testing.T) {
	for _, pages := range []uint64{MaxPages + 1, 1 << 62, 1<<64 - 1} {
		_, err := New(4, pages)
		if err == nil {
			t.Fatalf("New(4, %d) succeeded", pages)
		}
		for _, want := range []string{fmt.Sprint(pages), fmt.Sprint(MaxPages)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("New(4, %d) error %q does not name %s", pages, err, want)
			}
		}
	}
	e, err := New(4, 1<<22)
	if err != nil {
		t.Fatalf("old array bound rejected: %v", err)
	}
	if err := e.Load(1<<22-1, 0, true); err != nil {
		t.Fatal(err)
	}
	for _, pages := range []uint64{MaxPages + 1, 1 << 62} {
		err := e.Grow(pages)
		if err == nil {
			t.Fatalf("Grow(%d) succeeded", pages)
		}
		for _, want := range []string{fmt.Sprint(pages), fmt.Sprint(MaxPages)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Grow(%d) error %q does not name %s", pages, err, want)
			}
		}
	}
	if e.Pages() != 1<<22 || len(e.pt) != 1<<22 {
		t.Fatalf("rejected Grow changed the page space: %d pages, table %d",
			e.Pages(), len(e.pt))
	}
	if !e.Present(1<<22-1) || !e.Preloaded(1<<22-1) || e.Resident() != 1 {
		t.Fatal("rejected Grow disturbed residency")
	}
	if err := e.Grow(1<<22 + 1); err != nil {
		t.Fatalf("growth past the old array bound rejected: %v", err)
	}
	if err := e.Load(1<<22, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGrowThenAddOwner: an owner registered after growth gets its own
// membership bitset, and owner-scoped scans see only its frames.
func TestGrowThenAddOwner(t *testing.T) {
	e, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []mem.PageID{1, 5} {
		if err := e.Load(p, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Grow(16); err != nil {
		t.Fatal(err)
	}
	if o := e.AddOwner(); o != 1 {
		t.Fatalf("AddOwner() = %d after growth, want 1", o)
	}
	if err := e.Load(9, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := e.OwnerAccessed(1); got != 1 {
		t.Fatalf("OwnerAccessed(1) = %d, want 1", got)
	}
	if v := e.SelectVictimOwned(1); v != 9 {
		t.Fatalf("owner 1 victim = %d, want 9", v)
	}
}
