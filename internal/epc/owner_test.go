package epc

import (
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

// addOwners registers owners until the EPC has n and returns the owner
// of each page when the page space splits into n equal ranges — the
// layout Engine.Admit gives n enclaves of equal size, whose kernels stamp
// their pages with it.
func addOwners(t *testing.T, e *EPC, n int) func(mem.PageID) int {
	t.Helper()
	for o := 1; o < n; o++ {
		if got := e.AddOwner(); got != o {
			t.Fatalf("AddOwner() = %d, want %d", got, o)
		}
	}
	pages := e.Pages()
	return func(p mem.PageID) int { return int(uint64(p) * uint64(n) / pages) }
}

// TestAddOwnerNumbersOwners: owner 0 exists from New, AddOwner hands out
// the next index, and Load stamps only a registered owner.
func TestAddOwnerNumbersOwners(t *testing.T) {
	e := mustNew(t, 4, 100)
	for _, o := range []int{-1, 1} {
		if err := e.Load(3, o, false); err == nil {
			t.Fatalf("Load under unregistered owner %d accepted", o)
		}
	}
	if e.Resident() != 0 {
		t.Fatal("rejected Load left a frame occupied")
	}
	for want := 1; want <= 3; want++ {
		if got := e.AddOwner(); got != want {
			t.Fatalf("AddOwner() = %d, want %d", got, want)
		}
	}
	// Stamps follow the loader, not the page number.
	for _, c := range []struct {
		p mem.PageID
		o int
	}{{90, 0}, {1, 3}, {2, 3}} {
		if err := e.Load(c.p, c.o, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Load(4, 4, false); err == nil {
		t.Fatal("Load under unregistered owner 4 accepted")
	}
	for o, want := range []int{1, 0, 0, 2} {
		if got := e.OwnerResident(o); got != want {
			t.Fatalf("OwnerResident(%d) = %d, want %d", o, got, want)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestImplicitSingleOwner: without AddOwner every page is loaded under
// owner 0, and the owned scan is the global scan.
func TestImplicitSingleOwner(t *testing.T) {
	e := mustNew(t, 4, 64)
	for _, p := range []mem.PageID{0, 1, 2, 63} {
		if err := e.Load(p, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.OwnerResident(0); got != 4 {
		t.Fatalf("OwnerResident(0) = %d, want 4", got)
	}
	if got := e.OwnerResident(1); got != 0 {
		t.Fatalf("OwnerResident(1) = %d, want 0", got)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerCountersTrackLoadEvict drives random loads and evicts across
// three owner ranges and checks the counters after every step.
func TestOwnerCountersTrackLoadEvict(t *testing.T) {
	e := mustNew(t, 6, 96)
	owner := addOwners(t, e, 3)
	r := rng.New(7)
	for i := 0; i < 4000; i++ {
		p := mem.PageID(r.Intn(96))
		if r.Intn(2) == 0 && !e.Present(p) {
			if e.Full() {
				e.Evict(e.SelectVictim())
			}
			if err := e.Load(p, owner(p), r.Intn(2) == 0); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		} else {
			e.Evict(p)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		sum := 0
		for o := 0; o < 3; o++ {
			sum += e.OwnerResident(o)
		}
		if sum != e.Resident() {
			t.Fatalf("step %d: owner counts sum to %d, Resident is %d", i, sum, e.Resident())
		}
	}
}

// TestSelectVictimOwnedRespectsOwnership: for every policy, the owned
// scan only ever returns pages inside the requested owner's range, and
// returns NoPage for an owner with nothing resident.
func TestSelectVictimOwnedRespectsOwnership(t *testing.T) {
	for _, policy := range []Policy{PolicyClock, PolicyFIFO, PolicyLRU, PolicyRandom} {
		t.Run(policy.String(), func(t *testing.T) {
			e, err := NewWithPolicy(8, 64, policy)
			if err != nil {
				t.Fatal(err)
			}
			owner := addOwners(t, e, 2) // owner 0: [0,32), owner 1: [32,64)
			// Owner 0 gets 5 pages, owner 1 gets 3; all touched.
			for _, p := range []mem.PageID{0, 1, 2, 3, 4, 32, 33, 34} {
				if err := e.Load(p, owner(p), false); err != nil {
					t.Fatal(err)
				}
			}
			for o := 0; o < 2; o++ {
				lo, hi := mem.PageID(o)*32, mem.PageID(o+1)*32
				for i := 0; i < 10; i++ {
					v := e.SelectVictimOwned(o)
					if v < lo || v >= hi {
						t.Fatalf("owner %d victim %d outside [%d,%d)", o, v, lo, hi)
					}
				}
			}
			// Drain owner 1, then its scan must return NoPage without
			// touching owner 0's frames.
			for _, p := range []mem.PageID{32, 33, 34} {
				e.Evict(p)
			}
			if v := e.SelectVictimOwned(1); v != mem.NoPage {
				t.Fatalf("empty owner 1 victim = %d, want NoPage", v)
			}
			if got := e.OwnerResident(0); got != 5 {
				t.Fatalf("owner 0 resident = %d, want 5", got)
			}
		})
	}
}

// TestOwnedClockSparesForeignBits: the filtered CLOCK must not clear
// access bits on frames it skips — foreign frames age exactly as they
// would under the global hand.
func TestOwnedClockSparesForeignBits(t *testing.T) {
	e := mustNew(t, 8, 64)
	owner := addOwners(t, e, 2)
	for _, p := range []mem.PageID{0, 1, 32, 33} {
		if err := e.Load(p, owner(p), false); err != nil {
			t.Fatal(err)
		}
	}
	// All four frames have the access bit set (demand loads). A full
	// owned scan over owner 0 must clear only owner 0's bits.
	if v := e.SelectVictimOwned(0); v != 0 && v != 1 {
		t.Fatalf("owner 0 victim = %d, want 0 or 1", v)
	}
	for _, p := range []mem.PageID{32, 33} {
		if !e.Accessed(p) {
			t.Fatalf("owned scan cleared foreign access bit on page %d", p)
		}
	}
}

// TestOwnedScanDegenerateMatchesGlobal pins the owned scan's safety
// property: with every page loaded under one owner, an interleaved random
// workload produces the identical victim sequence whether it asks the
// global or the owned scan — owner 0 on a solo EPC, or an added owner
// holding every frame while owner 0 holds none.
func TestOwnedScanDegenerateMatchesGlobal(t *testing.T) {
	for _, policy := range []Policy{PolicyClock, PolicyFIFO, PolicyLRU, PolicyRandom} {
		t.Run(policy.String(), func(t *testing.T) {
			mk := func(owned bool) *EPC {
				e, err := NewWithPolicy(8, 128, policy)
				if err != nil {
					t.Fatal(err)
				}
				if owned {
					e.AddOwner()
				}
				return e
			}
			global, owned := mk(false), mk(true)
			r := rng.New(4242)
			for i := 0; i < 5000; i++ {
				p := mem.PageID(r.Intn(128))
				switch r.Intn(3) {
				case 0:
					if global.Present(p) {
						continue
					}
					if global.Full() {
						gv, ov := global.SelectVictim(), owned.SelectVictimOwned(1)
						if gv != ov {
							t.Fatalf("step %d: global victim %d, owned victim %d", i, gv, ov)
						}
						global.Evict(gv)
						owned.Evict(ov)
					}
					pre := r.Intn(2) == 0
					if err := global.Load(p, 0, pre); err != nil {
						t.Fatal(err)
					}
					if err := owned.Load(p, 1, pre); err != nil {
						t.Fatal(err)
					}
				case 1:
					global.Touch(p)
					owned.Touch(p)
				case 2:
					gv, ov := global.SelectVictim(), owned.SelectVictimOwned(1)
					if gv != ov {
						t.Fatalf("step %d: global victim %d, owned victim %d", i, gv, ov)
					}
				}
			}
		})
	}
}

func TestOwnerAccessed(t *testing.T) {
	e := mustNew(t, 8, 64)
	owner := addOwners(t, e, 2)
	// Owner 0: two demand loads (accessed) + one preload (not accessed).
	// Owner 1: one preload.
	for _, c := range []struct {
		p   mem.PageID
		pre bool
	}{{0, false}, {1, false}, {2, true}, {32, true}} {
		if err := e.Load(c.p, owner(c.p), c.pre); err != nil {
			t.Fatal(err)
		}
	}
	if acc := e.OwnerAccessed(0); acc != 2 {
		t.Fatalf("owner 0 accessed = %d, want 2", acc)
	}
	if acc := e.OwnerAccessed(1); acc != 0 {
		t.Fatalf("owner 1 accessed = %d, want 0", acc)
	}
	if acc := e.OwnerAccessed(2); acc != 0 {
		t.Fatalf("unregistered owner 2 accessed = %d, want 0", acc)
	}
	// The count is read-only: access bits survive it.
	if !e.Accessed(0) || !e.Accessed(1) {
		t.Fatal("OwnerAccessed disturbed access bits")
	}
}

// TestCheckInvariantsCatchesBitsetDrift: an owner bitset that disagrees
// with the frame stamps or holds a bit past the last frame, an occupancy
// bitset that disagrees with the frames, and an access or preload bit on
// a free frame or past the last frame are reported.
func TestCheckInvariantsCatchesBitsetDrift(t *testing.T) {
	e := mustNew(t, 8, 64)
	owner := addOwners(t, e, 2)
	for _, p := range []mem.PageID{0, 1, 32} {
		if err := e.Load(p, owner(p), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Frame 0 holds owner 0's page 0; claim it for owner 1 too.
	e.ownedBits[1][0] |= 1
	if err := e.CheckInvariants(); err == nil {
		t.Fatal("frame claimed by two owners' bitsets not reported")
	}
	e.ownedBits[1][0] &^= 1
	// A stray bit past the 8 frames escapes the per-frame walk but not
	// the popcount.
	e.ownedBits[0][0] |= 1 << 9
	if err := e.CheckInvariants(); err == nil {
		t.Fatal("bitset bit past the last frame not reported")
	}
	e.ownedBits[0][0] &^= 1 << 9
	// Frame 3 is free; mark it occupied in the occupancy bitset only.
	e.occupied[0] |= 1 << 3
	if err := e.CheckInvariants(); err == nil {
		t.Fatal("occupancy bitset disagreeing with the frame not reported")
	}
	e.occupied[0] &^= 1 << 3
	// Frame 3 is free; set its access or preload bit, then one past the
	// 8 frames.
	for _, set := range [][]uint64{e.accessed, e.preloaded} {
		for _, f := range []uint{3, 9} {
			set[0] |= 1 << f
			if err := e.CheckInvariants(); err == nil {
				t.Fatalf("bit on free frame %d not reported", f)
			}
			set[0] &^= 1 << f
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
