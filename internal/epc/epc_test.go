package epc

import (
	"testing"
	"testing/quick"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

func mustNew(t *testing.T, capacity int, pages uint64) *EPC {
	t.Helper()
	e, err := New(capacity, pages)
	if err != nil {
		t.Fatalf("New(%d, %d): %v", capacity, pages, err)
	}
	return e
}

func TestNewRejectsBadArguments(t *testing.T) {
	tests := []struct {
		name     string
		capacity int
		pages    uint64
	}{
		{"zero capacity", 0, 10},
		{"negative capacity", -1, 10},
		{"zero pages", 4, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.capacity, tt.pages); err == nil {
				t.Fatalf("New(%d, %d) succeeded, want error", tt.capacity, tt.pages)
			}
		})
	}
}

func TestLoadAndPresence(t *testing.T) {
	e := mustNew(t, 2, 100)
	if e.Present(3) {
		t.Fatal("page 3 present in empty EPC")
	}
	if err := e.Load(3, false); err != nil {
		t.Fatalf("Load(3): %v", err)
	}
	if !e.Present(3) {
		t.Fatal("page 3 absent after load")
	}
	if !e.PresenceBitmap().Get(3) {
		t.Fatal("presence bitmap not updated on load")
	}
	if e.Resident() != 1 {
		t.Fatalf("Resident() = %d, want 1", e.Resident())
	}
}

func TestLoadErrors(t *testing.T) {
	e := mustNew(t, 1, 10)
	if err := e.Load(5, false); err != nil {
		t.Fatalf("Load(5): %v", err)
	}
	if err := e.Load(5, false); err == nil {
		t.Fatal("double load succeeded, want error")
	}
	if err := e.Load(6, false); err == nil {
		t.Fatal("load into full EPC succeeded, want error")
	}
	if err := e.Load(50, false); err == nil {
		t.Fatal("load outside ELRANGE succeeded, want error")
	}
}

func TestEvictFreesFrame(t *testing.T) {
	e := mustNew(t, 1, 10)
	if err := e.Load(5, false); err != nil {
		t.Fatalf("Load(5): %v", err)
	}
	if !e.Evict(5) {
		t.Fatal("Evict(5) = false, want true")
	}
	if e.Present(5) {
		t.Fatal("page 5 present after eviction")
	}
	if e.PresenceBitmap().Get(5) {
		t.Fatal("presence bitmap still set after eviction")
	}
	if err := e.Load(6, false); err != nil {
		t.Fatalf("Load(6) after eviction: %v", err)
	}
}

func TestEvictAbsentPage(t *testing.T) {
	e := mustNew(t, 1, 10)
	if e.Evict(5) {
		t.Fatal("Evict of absent page = true, want false")
	}
}

func TestClockPrefersUnaccessedVictim(t *testing.T) {
	e := mustNew(t, 3, 100)
	for _, p := range []mem.PageID{1, 2, 3} {
		if err := e.Load(p, false); err != nil {
			t.Fatalf("Load(%d): %v", p, err)
		}
	}
	// Demand loads arrive with the access bit set. Clear 2's bit by
	// letting CLOCK sweep once (clears all), then re-touch 1 and 3.
	_ = e.SelectVictim() // sweeps, clears bits, returns some page
	e.Touch(1)
	e.Touch(3)
	v := e.SelectVictim()
	if v != 2 {
		t.Fatalf("SelectVictim() = %d, want 2 (only unaccessed page)", v)
	}
}

func TestClockSecondChanceTermination(t *testing.T) {
	e := mustNew(t, 4, 100)
	for p := mem.PageID(0); p < 4; p++ {
		if err := e.Load(p, false); err != nil {
			t.Fatalf("Load(%d): %v", p, err)
		}
		e.Touch(p)
	}
	// Every access bit set: CLOCK must still terminate and return a page.
	v := e.SelectVictim()
	if v == mem.NoPage {
		t.Fatal("SelectVictim() = NoPage on full EPC")
	}
}

func TestSelectVictimEmpty(t *testing.T) {
	e := mustNew(t, 4, 100)
	if v := e.SelectVictim(); v != mem.NoPage {
		t.Fatalf("SelectVictim() on empty EPC = %d, want NoPage", v)
	}
}

func TestPreloadBitLifecycle(t *testing.T) {
	e := mustNew(t, 4, 100)
	if err := e.Load(7, true); err != nil {
		t.Fatalf("Load(7, preload): %v", err)
	}
	if !e.Preloaded(7) {
		t.Fatal("Preloaded(7) = false after preload")
	}
	if e.Accessed(7) {
		t.Fatal("preloaded page arrived with access bit set")
	}

	// Unaccessed preloads are visited but keep their bit.
	var visits, accessed int
	e.ScanPreloadBitsRange(0, mem.PageID(e.Pages()), true, func(_ mem.PageID, acc bool) {
		visits++
		if acc {
			accessed++
		}
	})
	if visits != 1 || accessed != 0 {
		t.Fatalf("scan saw %d visits, %d accessed; want 1, 0", visits, accessed)
	}
	if !e.Preloaded(7) {
		t.Fatal("unaccessed preload bit cleared by scan")
	}

	// After a touch the scan counts it once and clears the bit.
	e.Touch(7)
	accessed = 0
	e.ScanPreloadBitsRange(0, mem.PageID(e.Pages()), true, func(_ mem.PageID, acc bool) {
		if acc {
			accessed++
		}
	})
	if accessed != 1 {
		t.Fatalf("scan counted %d accessed preloads, want 1", accessed)
	}
	if e.Preloaded(7) {
		t.Fatal("preload bit survived counting scan")
	}
}

func TestDemandLoadArrivesAccessed(t *testing.T) {
	e := mustNew(t, 4, 100)
	if err := e.Load(1, false); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !e.Accessed(1) {
		t.Fatal("demand-loaded page should carry the access bit (the faulting access touches it)")
	}
}

func TestTouchAbsent(t *testing.T) {
	e := mustNew(t, 4, 100)
	if e.Touch(9) {
		t.Fatal("Touch of absent page = true, want false")
	}
}

// TestInvariantsUnderRandomOperations drives a random mix of loads,
// evictions, touches, and victim selections and checks the structural
// invariants after every step.
func TestInvariantsUnderRandomOperations(t *testing.T) {
	const (
		capacity = 8
		pages    = 64
		steps    = 5000
	)
	r := rng.New(42)
	e := mustNew(t, capacity, pages)
	for i := 0; i < steps; i++ {
		p := mem.PageID(r.Intn(pages))
		switch r.Intn(4) {
		case 0:
			if !e.Present(p) {
				if e.Full() {
					v := e.SelectVictim()
					if v == mem.NoPage {
						t.Fatal("full EPC but no victim")
					}
					e.Evict(v)
				}
				if err := e.Load(p, r.Intn(2) == 0); err != nil {
					t.Fatalf("step %d: Load(%d): %v", i, p, err)
				}
			}
		case 1:
			e.Evict(p)
		case 2:
			e.Touch(p)
		case 3:
			if e.Resident() > 0 {
				if v := e.SelectVictim(); v == mem.NoPage {
					t.Fatal("non-empty EPC but no victim")
				}
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if e.Resident() > capacity {
			t.Fatalf("step %d: resident %d exceeds capacity %d", i, e.Resident(), capacity)
		}
	}
}

func TestBitmapProperties(t *testing.T) {
	f := func(idx []uint16) bool {
		b := NewBitmap(1 << 16)
		set := make(map[uint64]bool)
		for _, i := range idx {
			b.Set(uint64(i))
			set[uint64(i)] = true
		}
		if b.Count() != uint64(len(set)) {
			return false
		}
		for i := range set {
			if !b.Get(i) {
				return false
			}
		}
		for _, i := range idx {
			b.Clear(uint64(i))
		}
		return b.Count() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapOutOfRange(t *testing.T) {
	b := NewBitmap(10)
	if b.Get(100) {
		t.Fatal("out-of-range Get = true")
	}
	b.Set(100)   // must not panic
	b.Clear(100) // must not panic
	if b.Count() != 0 {
		t.Fatalf("Count() = %d after out-of-range Set, want 0", b.Count())
	}
}

func TestBitmapLen(t *testing.T) {
	for _, n := range []uint64{1, 63, 64, 65, 1000} {
		if got := NewBitmap(n).Len(); got != n {
			t.Fatalf("NewBitmap(%d).Len() = %d", n, got)
		}
	}
}
