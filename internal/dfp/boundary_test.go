package dfp

import (
	"testing"

	"sgxpreload/internal/mem"
)

// The PageID boundary cases of entry.matches: at the top of the address
// space pend+1 collides with the mem.NoPage sentinel, and at the bottom
// pend-1 would wrap. The window tests must stay exact at both edges.
func TestEntryMatchesBoundaries(t *testing.T) {
	top := mem.NoPage - 1 // highest real page
	tests := []struct {
		name     string
		e        entry
		npn      mem.PageID
		backward bool
		wantDir  Direction
		wantOK   bool
	}{
		// Interior forward window (stpn, pend+1].
		{"forward in-window", entry{stpn: 100, pend: 105, dir: Forward}, 103, false, Forward, true},
		{"forward at pend", entry{stpn: 100, pend: 105, dir: Forward}, 105, false, Forward, true},
		{"forward at pend+1", entry{stpn: 100, pend: 105, dir: Forward}, 106, false, Forward, true},
		{"forward past window", entry{stpn: 100, pend: 105, dir: Forward}, 107, false, 0, false},
		{"forward at tail is not ahead", entry{stpn: 100, pend: 105, dir: Forward}, 100, false, 0, false},

		// Top edge: pend is the last real page, so pend+1 is the NoPage
		// sentinel. The unguarded test `npn <= pend+1` accepted every
		// page above the tail here.
		{"forward top: top page accepted", entry{stpn: top - 1, pend: top, dir: Forward}, top, false, Forward, true},
		{"forward top: sentinel rejected", entry{stpn: top - 1, pend: top, dir: Forward}, mem.NoPage, false, 0, false},
		{"forward top: huge window still bounded by pend", entry{stpn: 5, pend: top, dir: Forward}, top, false, Forward, true},

		// Interior backward window [pend-1, stpn).
		{"backward in-window", entry{stpn: 100, pend: 95, dir: Backward}, 97, true, Backward, true},
		{"backward at pend", entry{stpn: 100, pend: 95, dir: Backward}, 95, true, Backward, true},
		{"backward at pend-1", entry{stpn: 100, pend: 95, dir: Backward}, 94, true, Backward, true},
		{"backward past window", entry{stpn: 100, pend: 95, dir: Backward}, 93, true, 0, false},

		// Bottom edge: pend == 0 has no pend-1; the window floor is
		// page 0 and must not wrap below it.
		{"backward floor: page 0 accepted", entry{stpn: 5, pend: 0, dir: Backward}, 0, true, Backward, true},
		{"backward floor: in-window accepted", entry{stpn: 5, pend: 0, dir: Backward}, 3, true, Backward, true},
		{"backward floor: tail rejected", entry{stpn: 5, pend: 0, dir: Backward}, 5, true, 0, false},

		// Unestablished direction at the edges: a tail on the top page
		// has no successor, a tail on page 0 has no predecessor.
		{"adjacency at top has no successor", entry{stpn: top, pend: top}, mem.NoPage, false, 0, false},
		{"adjacency below top", entry{stpn: top - 1, pend: top - 1}, top, false, Forward, true},
		{"adjacency at 0 has no predecessor", entry{stpn: 0, pend: 0}, mem.NoPage, true, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir, ok := tt.e.matches(tt.npn, tt.backward)
			if dir != tt.wantDir || ok != tt.wantOK {
				t.Fatalf("matches(%d, backward=%v) on %+v = (%d, %v), want (%d, %v)",
					tt.npn, tt.backward, tt.e, dir, ok, tt.wantDir, tt.wantOK)
			}
			// The scan's prefilter must pass every page matches accepts.
			if w := windowOf(&tt.e); ok && !w.contains(tt.npn) {
				t.Fatalf("matched page %d outside window [%d, %d]", tt.npn, w.lo, w.hi)
			}
		})
	}
}

// A stream driven to the top of the address space through the public API
// must clamp its window there rather than matching arbitrary pages.
func TestOnFaultAtAddressSpaceTop(t *testing.T) {
	top := mem.NoPage - 1
	p := mustNew(t, DefaultConfig())
	p.OnFault(top - 2)
	got := p.OnFault(top - 1) // predicts only [top]: the space ends there
	if len(got) != 1 || got[0] != top {
		t.Fatalf("prediction near top = %v, want [%d]", got, top)
	}
	// The stream's window is now (top-1, top]. A wild fault far below
	// must not extend it, and the sentinel value must never match.
	if got := p.OnFault(42); got != nil {
		t.Fatalf("wild fault extended a top-of-space stream: %v", got)
	}
}

// TestForwardWindowRejectsWildFaultAtTop pins the fixed bug directly:
// with pend at the last page, the old `npn <= pend+1` comparison
// degenerated to "accept anything above the tail".
func TestForwardWindowRejectsWildFaultAtTop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StreamListLen = 2
	p := mustNew(t, cfg)
	top := mem.NoPage - 1
	p.OnFault(top - 1)
	p.OnFault(top) // establishes a forward stream with pend == top
	// A fault "above" top can only be the sentinel; it must start a new
	// stream (a miss), not extend the saturated one.
	before := p.Hits()
	p.OnFault(mem.NoPage)
	if p.Hits() != before {
		t.Fatal("sentinel fault counted as a stream hit")
	}
}
