package epc

import (
	"testing"

	"sgxpreload/internal/mem"
)

// TestGrowPreservesState: growing the page space keeps residency, bits,
// and the presence bitmap intact, and the new pages are loadable.
func TestGrowPreservesState(t *testing.T) {
	e, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []mem.PageID{1, 5, 7} {
		if err := e.Load(p, p == 5); err != nil {
			t.Fatal(err)
		}
	}
	bm := e.PresenceBitmap() // handle taken before growth must stay valid
	if err := e.Load(9, false); err == nil {
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
	if !bm.Get(5) || bm.Get(9) {
		t.Error("pre-growth bitmap handle out of sync")
	}
	if err := e.Load(9, false); err != nil {
		t.Errorf("page 9 not loadable after growth: %v", err)
	}
	if !bm.Get(9) {
		t.Error("pre-growth bitmap handle missed post-growth load")
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

// TestGrowDenseToSparse: growth past maxDensePages converts the flat
// reverse array to the map fallback without losing mappings.
func TestGrowDenseToSparse(t *testing.T) {
	e, err := New(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.pt.(*densePageTable); !ok {
		t.Fatalf("64-page table not dense: %T", e.pt)
	}
	for _, p := range []mem.PageID{0, 63} {
		if err := e.Load(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Grow(maxDensePages + 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.pt.(sparsePageTable); !ok {
		t.Fatalf("post-growth table not sparse: %T", e.pt)
	}
	if !e.Present(0) || !e.Present(63) {
		t.Error("mappings lost in dense->sparse conversion")
	}
	if err := e.Load(maxDensePages, false); err != nil {
		t.Errorf("beyond-dense page not loadable: %v", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Eviction after conversion exercises remove on the sparse table.
	if !e.Evict(63) || e.Present(63) {
		t.Error("eviction broken after conversion")
	}
}

// TestGrowDenseStaysDense: growth within maxDensePages extends the flat
// array in place.
func TestGrowDenseStaysDense(t *testing.T) {
	e, err := New(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(3, false); err != nil {
		t.Fatal(err)
	}
	if err := e.Grow(1024); err != nil {
		t.Fatal(err)
	}
	d, ok := e.pt.(*densePageTable)
	if !ok {
		t.Fatalf("grown table not dense: %T", e.pt)
	}
	if len(d.frames) != 1024 {
		t.Errorf("dense table covers %d pages, want 1024", len(d.frames))
	}
	if !e.Present(3) {
		t.Error("mapping lost in dense growth")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestGrowThenAddOwner: an owner registered after growth gets its own
// membership bitset, and owner-scoped scans see only its frames.
func TestGrowThenAddOwner(t *testing.T) {
	e, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddOwner(8); err != nil {
		t.Fatal(err)
	}
	for _, p := range []mem.PageID{1, 5} {
		if err := e.Load(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Grow(16); err != nil {
		t.Fatal(err)
	}
	if err := e.AddOwner(16); err != nil {
		t.Fatal(err)
	}
	if err := e.Load(9, false); err != nil {
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
