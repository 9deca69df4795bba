package epc

import (
	"fmt"
	"slices"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

// forceSparse swaps a freshly built EPC onto the map-backed page table,
// regardless of ELRANGE size. Only valid before any page is loaded.
func forceSparse(t *testing.T, e *EPC) {
	t.Helper()
	if e.Resident() != 0 {
		t.Fatal("forceSparse on a non-empty EPC")
	}
	e.pt = make(sparsePageTable, len(e.frames))
}

func TestNewSelectsPageTableImplementation(t *testing.T) {
	small := mustNew(t, 4, 1024)
	if _, ok := small.pt.(*densePageTable); !ok {
		t.Fatalf("small ELRANGE uses %T, want *densePageTable", small.pt)
	}
	big, err := New(4, maxDensePages+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := big.pt.(sparsePageTable); !ok {
		t.Fatalf("oversized ELRANGE uses %T, want sparsePageTable", big.pt)
	}
}

// TestPageTableDifferential drives a dense-table EPC and a map-fallback
// EPC through an identical random load/touch/evict/victim sequence under
// every eviction policy and asserts they stay indistinguishable: same
// victims, same presence answers, same bitmap, same invariants. This is
// the parity oracle for the reverse-array optimization — any divergence
// in the page table would surface as a differing victim or bitmap.
func TestPageTableDifferential(t *testing.T) {
	const (
		capacity = 8
		pages    = 128
		steps    = 8000
		owners   = 4 // pages split into 4 equal owner ranges
	)
	for _, policy := range []Policy{PolicyClock, PolicyFIFO, PolicyLRU, PolicyRandom} {
		t.Run(policy.String(), func(t *testing.T) {
			mk := func() *EPC {
				e, err := NewWithPolicy(capacity, pages, policy)
				if err != nil {
					t.Fatal(err)
				}
				for o := 1; o <= owners; o++ {
					if err := e.AddOwner(uint64(o) * pages / owners); err != nil {
						t.Fatal(err)
					}
				}
				return e
			}
			dense, sparse := mk(), mk()
			if _, ok := dense.pt.(*densePageTable); !ok {
				t.Fatalf("control EPC uses %T, want *densePageTable", dense.pt)
			}
			forceSparse(t, sparse)

			r := rng.New(1337)
			for i := 0; i < steps; i++ {
				p := mem.PageID(r.Intn(pages))
				switch r.Intn(6) {
				case 0: // load (evicting if full), preload flag varies
					if dense.Present(p) != sparse.Present(p) {
						t.Fatalf("step %d: Present(%d) diverges", i, p)
					}
					if dense.Present(p) {
						continue
					}
					if dense.Full() {
						dv, sv := dense.SelectVictim(), sparse.SelectVictim()
						if dv != sv {
							t.Fatalf("step %d: victims diverge: dense %d, sparse %d", i, dv, sv)
						}
						dense.Evict(dv)
						sparse.Evict(sv)
					}
					pre := r.Intn(2) == 0
					if err := dense.Load(p, pre); err != nil {
						t.Fatalf("step %d: dense Load(%d): %v", i, p, err)
					}
					if err := sparse.Load(p, pre); err != nil {
						t.Fatalf("step %d: sparse Load(%d): %v", i, p, err)
					}
				case 1:
					if dense.Evict(p) != sparse.Evict(p) {
						t.Fatalf("step %d: Evict(%d) diverges", i, p)
					}
				case 2:
					if dense.Touch(p) != sparse.Touch(p) {
						t.Fatalf("step %d: Touch(%d) diverges", i, p)
					}
				case 3:
					if dv, sv := dense.SelectVictim(), sparse.SelectVictim(); dv != sv {
						t.Fatalf("step %d: SelectVictim diverges: dense %d, sparse %d", i, dv, sv)
					}
				case 4:
					if dense.Preloaded(p) != sparse.Preloaded(p) || dense.Accessed(p) != sparse.Accessed(p) {
						t.Fatalf("step %d: frame bits diverge for page %d", i, p)
					}
				case 5: // owner-filtered victim scan
					o := r.Intn(owners)
					if dv, sv := dense.SelectVictimOwned(o), sparse.SelectVictimOwned(o); dv != sv {
						t.Fatalf("step %d: SelectVictimOwned(%d) diverges: dense %d, sparse %d", i, o, dv, sv)
					}
				}
				if dense.Resident() != sparse.Resident() {
					t.Fatalf("step %d: Resident diverges: %d vs %d", i, dense.Resident(), sparse.Resident())
				}
				// Ownership invariant: per-owner counts agree across the
				// two implementations and sum to the resident total.
				sum := 0
				for o := 0; o < owners; o++ {
					if dr, sr := dense.OwnerResident(o), sparse.OwnerResident(o); dr != sr {
						t.Fatalf("step %d: OwnerResident(%d) diverges: %d vs %d", i, o, dr, sr)
					}
					sum += dense.OwnerResident(o)
				}
				if sum != dense.Resident() {
					t.Fatalf("step %d: owner counts sum to %d, Resident is %d", i, sum, dense.Resident())
				}
			}
			// Final state must agree bit for bit.
			for p := uint64(0); p < pages; p++ {
				if dense.PresenceBitmap().Get(p) != sparse.PresenceBitmap().Get(p) {
					t.Fatalf("presence bitmap diverges at page %d", p)
				}
			}
			if err := dense.CheckInvariants(); err != nil {
				t.Fatalf("dense invariants: %v", err)
			}
			if err := sparse.CheckInvariants(); err != nil {
				t.Fatalf("sparse invariants: %v", err)
			}
		})
	}
}

// TestSparseFallbackUnderRandomOperations re-runs the structural
// invariant soak on the map-backed table so the fallback keeps its own
// coverage even though every default-sized EPC now takes the dense path.
func TestSparseFallbackUnderRandomOperations(t *testing.T) {
	const (
		capacity = 8
		pages    = 64
		steps    = 3000
	)
	e := mustNew(t, capacity, pages)
	forceSparse(t, e)
	r := rng.New(99)
	for i := 0; i < steps; i++ {
		p := mem.PageID(r.Intn(pages))
		switch r.Intn(3) {
		case 0:
			if !e.Present(p) {
				if e.Full() {
					e.Evict(e.SelectVictim())
				}
				if err := e.Load(p, r.Intn(2) == 0); err != nil {
					t.Fatalf("step %d: Load(%d): %v", i, p, err)
				}
			}
		case 1:
			e.Evict(p)
		case 2:
			e.Touch(p)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// The reference owner-scoped scans below are the frame-walking
// implementations the per-owner membership bitsets replaced, kept
// verbatim as the oracle for TestOwnedScanDifferential.

// refSelectVictimOwned is the linear owner-filtered victim scan.
func refSelectVictimOwned(e *EPC, owner int) mem.PageID {
	if e.OwnerResident(owner) == 0 {
		return mem.NoPage
	}
	o := int32(owner)
	switch e.policy {
	case PolicyFIFO:
		return refVictimByMinOwned(e, o, func(fr *frame) uint64 { return fr.loadedAt })
	case PolicyLRU:
		return refVictimByMinOwned(e, o, func(fr *frame) uint64 { return fr.touchedAt })
	case PolicyRandom:
		return e.victimRandomOwned(o)
	}
	for sweep := 0; sweep < 2*len(e.frames); sweep++ {
		fr := &e.frames[e.hand]
		e.hand = (e.hand + 1) % len(e.frames)
		if fr.page == mem.NoPage || fr.owner != o {
			continue
		}
		if fr.accessed {
			fr.accessed = false
			continue
		}
		return fr.page
	}
	panic("epc: owned CLOCK failed to select a victim")
}

// refVictimByMinOwned is the linear owner-filtered FIFO/LRU minimum.
func refVictimByMinOwned(e *EPC, owner int32, key func(*frame) uint64) mem.PageID {
	victim := mem.NoPage
	best := uint64(0)
	for i := range e.frames {
		fr := &e.frames[i]
		if fr.page == mem.NoPage || fr.owner != owner {
			continue
		}
		if k := key(fr); victim == mem.NoPage || k < best {
			victim, best = fr.page, k
		}
	}
	return victim
}

// refOwnerScanStats is the frame-walking per-owner accessed/resident count.
func refOwnerScanStats(e *EPC, owner int) (accessed, resident int) {
	for i := range e.frames {
		fr := &e.frames[i]
		if fr.page == mem.NoPage || int(fr.owner) != owner {
			continue
		}
		resident++
		if fr.accessed {
			accessed++
		}
	}
	return accessed, resident
}

// refScanPreloadBitsRange is the frame-walking preload-bit scan.
func refScanPreloadBitsRange(e *EPC, lo, hi mem.PageID, clear bool, visit func(page mem.PageID, accessed bool)) {
	for i := range e.frames {
		fr := &e.frames[i]
		if fr.page == mem.NoPage || !fr.preload || fr.page < lo || fr.page >= hi {
			continue
		}
		visit(fr.page, fr.accessed)
		if clear && fr.accessed {
			fr.preload = false
		}
	}
}

// scanVisit is one page reported by a preload-bit scan.
type scanVisit struct {
	page     mem.PageID
	accessed bool
}

// TestOwnedScanDifferential drives an EPC using the bitset-backed owner
// scans and one using the linear reference scans through the same random
// Load/Touch/Evict/SelectVictim/SelectVictimOwned/scan sequence, under
// every policy, on dense and sparse page tables, at 0 (implicit owner 0)
// to 64 owners and capacities up to 65536 frames (1 and 64 owners only at
// the largest). After every operation the two must agree on the victim,
// the CLOCK hand and every frame's page, owner, access and preload bits
// and FIFO/LRU stamps.
func TestOwnedScanDifferential(t *testing.T) {
	for _, capacity := range []int{64, 4096, 65536} {
		ownerCounts := []int{0, 1, 5, 64}
		if capacity > 4096 {
			ownerCounts = []int{1, 64} // the extremes: each cell costs O(capacity) per step
		}
		for _, owners := range ownerCounts {
			for _, policy := range []Policy{PolicyClock, PolicyFIFO, PolicyLRU, PolicyRandom} {
				for _, sparse := range []bool{false, true} {
					table := "dense"
					if sparse {
						table = "sparse"
					}
					name := fmt.Sprintf("cap=%d/owners=%d/%v/%s", capacity, owners, policy, table)
					t.Run(name, func(t *testing.T) {
						if testing.Short() && capacity > 4096 {
							t.Skip("large capacity in -short mode")
						}
						ownedScanDifferential(t, capacity, owners, policy, sparse)
					})
				}
			}
		}
	}
}

func ownedScanDifferential(t *testing.T, capacity, owners int, policy Policy, sparse bool) {
	pages := uint64(2 * capacity)
	mk := func() *EPC {
		e, err := NewWithPolicy(capacity, pages, policy)
		if err != nil {
			t.Fatal(err)
		}
		if sparse {
			forceSparse(t, e)
		}
		for o := 1; o <= owners; o++ {
			if err := e.AddOwner(uint64(o) * pages / uint64(owners)); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	fast, ref := mk(), mk()
	nOwners := max(owners, 1)
	ownerRange := func(o int) (lo, hi mem.PageID) {
		return mem.PageID(uint64(o) * pages / uint64(nOwners)), mem.PageID(uint64(o+1) * pages / uint64(nOwners))
	}
	r := rng.New(uint64(capacity)*131 + uint64(owners)*7 + uint64(policy))
	// Skewed owner choice, so owners hold very different frame shares.
	pickOwner := func() int { return r.Intn(r.Intn(nOwners) + 1) }
	pickPage := func() mem.PageID {
		lo, hi := ownerRange(pickOwner())
		return lo + mem.PageID(r.Intn(int(hi-lo)))
	}
	same := func(step int, op string) {
		t.Helper()
		if fast.hand != ref.hand {
			t.Fatalf("step %d (%s): hand %d, reference %d", step, op, fast.hand, ref.hand)
		}
		for i := range fast.frames {
			if fast.frames[i] != ref.frames[i] {
				t.Fatalf("step %d (%s): frame %d is %+v, reference %+v",
					step, op, i, fast.frames[i], ref.frames[i])
			}
		}
	}
	load := func(step int, p mem.PageID) {
		if fast.Present(p) {
			return
		}
		if fast.Full() {
			// Evict through either scan, as the kernel does.
			var fv, rv mem.PageID
			if r.Intn(2) == 0 {
				fv, rv = fast.SelectVictim(), ref.SelectVictim()
			} else {
				o := pickOwner()
				fv, rv = fast.SelectVictimOwned(o), refSelectVictimOwned(ref, o)
				if fv == mem.NoPage && rv == mem.NoPage {
					fv, rv = fast.SelectVictim(), ref.SelectVictim()
				}
			}
			if fv != rv {
				t.Fatalf("step %d: eviction victim %d, reference %d", step, fv, rv)
			}
			fast.Evict(fv)
			ref.Evict(rv)
		}
		pre := r.Intn(3) == 0
		if err := fast.Load(p, pre); err != nil {
			t.Fatalf("step %d: Load(%d): %v", step, p, err)
		}
		if err := ref.Load(p, pre); err != nil {
			t.Fatalf("step %d: reference Load(%d): %v", step, p, err)
		}
	}
	// Fill the EPC before the compared phase; a large EPC would otherwise
	// spend every step filling.
	for !fast.Full() {
		load(-1, pickPage())
	}
	same(-1, "fill")

	steps := min(max(2_000_000/capacity, 100), 4000)
	for i := 0; i < steps; i++ {
		var op string
		switch r.Intn(8) {
		case 0, 1:
			op = "load"
			load(i, pickPage())
		case 2:
			op = "touch"
			p := pickPage()
			if fast.Touch(p) != ref.Touch(p) {
				t.Fatalf("step %d: Touch(%d) diverges", i, p)
			}
		case 3:
			op = "evict"
			p := pickPage()
			if fast.Evict(p) != ref.Evict(p) {
				t.Fatalf("step %d: Evict(%d) diverges", i, p)
			}
		case 4:
			op = "victim"
			if fv, rv := fast.SelectVictim(), ref.SelectVictim(); fv != rv {
				t.Fatalf("step %d: SelectVictim %d, reference %d", i, fv, rv)
			}
		case 5:
			op = "victim-owned"
			o := pickOwner()
			if fv, rv := fast.SelectVictimOwned(o), refSelectVictimOwned(ref, o); fv != rv {
				t.Fatalf("step %d: SelectVictimOwned(%d) %d, reference %d", i, o, fv, rv)
			}
		case 6:
			op = "owner-accessed"
			o := pickOwner()
			acc, res := refOwnerScanStats(ref, o)
			if got := fast.OwnerAccessed(o); got != acc {
				t.Fatalf("step %d: OwnerAccessed(%d) %d, reference %d", i, o, got, acc)
			}
			if got := fast.OwnerResident(o); got != res {
				t.Fatalf("step %d: OwnerResident(%d) %d, reference %d", i, o, got, res)
			}
		case 7:
			op = "scan"
			// Mostly an owner's exact range (the kernel's scan), sometimes
			// an arbitrary one that may straddle owners.
			lo, hi := ownerRange(pickOwner())
			if r.Intn(4) == 0 {
				lo, hi = pickPage(), pickPage()
				if lo > hi {
					lo, hi = hi, lo
				}
			}
			clear := r.Intn(2) == 0
			var fs, rs []scanVisit
			fast.ScanPreloadBitsRange(lo, hi, clear, func(p mem.PageID, acc bool) { fs = append(fs, scanVisit{p, acc}) })
			refScanPreloadBitsRange(ref, lo, hi, clear, func(p mem.PageID, acc bool) { rs = append(rs, scanVisit{p, acc}) })
			if !slices.Equal(fs, rs) {
				t.Fatalf("step %d: ScanPreloadBitsRange(%d, %d) visited %v, reference %v", i, lo, hi, fs, rs)
			}
		}
		same(i, op)
		if capacity <= 64 {
			if err := fast.CheckInvariants(); err != nil {
				t.Fatalf("step %d (%s): %v", i, op, err)
			}
		}
	}
	// Only the bitset-backed EPC is checked: the reference preload scan
	// clears frame bits without the preload bitset it predates.
	if err := fast.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
