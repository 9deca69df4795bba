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

// The reference scans below are the frame-walking implementations the
// membership bitsets replaced, kept as the oracle for
// TestOwnedScanDifferential. They walk frame by frame exactly as before;
// only the access bit, which now lives in a bitset rather than in the
// frame, is read and cleared through accessBit and clearAccessBit.

// accessBit reports frame f's access bit.
func accessBit(e *EPC, f int) bool { return e.accessed[f>>6]&(1<<(f&63)) != 0 }

// clearAccessBit clears frame f's access bit, one frame at a time.
func clearAccessBit(e *EPC, f int) { e.accessed[f>>6] &^= 1 << (f & 63) }

// refSelectVictim is the linear global victim scan.
func refSelectVictim(e *EPC) mem.PageID {
	if e.pt.size() == 0 {
		return mem.NoPage
	}
	switch e.policy {
	case PolicyFIFO:
		return refVictimByMin(e, func(fr *frame) uint64 { return fr.loadedAt })
	case PolicyLRU:
		return refVictimByMin(e, func(fr *frame) uint64 { return fr.touchedAt })
	case PolicyRandom:
		return refVictimRandom(e)
	}
	for sweep := 0; sweep < 2*len(e.frames); sweep++ {
		f := e.hand
		fr := &e.frames[f]
		e.hand = (e.hand + 1) % len(e.frames)
		if fr.page == mem.NoPage {
			continue
		}
		if accessBit(e, f) {
			clearAccessBit(e, f)
			continue
		}
		return fr.page
	}
	// Unreachable: two sweeps over a non-empty table must find a frame
	// whose bit was cleared on the first pass.
	panic("epc: CLOCK failed to select a victim")
}

// refVictimByMin scans for the occupied frame minimizing key.
func refVictimByMin(e *EPC, key func(*frame) uint64) mem.PageID {
	victim := mem.NoPage
	best := uint64(0)
	for i := range e.frames {
		fr := &e.frames[i]
		if fr.page == mem.NoPage {
			continue
		}
		if k := key(fr); victim == mem.NoPage || k < best {
			victim, best = fr.page, k
		}
	}
	return victim
}

// refVictimRandom picks a uniformly random occupied frame (deterministic
// xorshift so runs stay reproducible).
func refVictimRandom(e *EPC) mem.PageID {
	for {
		e.rnd ^= e.rnd << 13
		e.rnd ^= e.rnd >> 7
		e.rnd ^= e.rnd << 17
		fr := &e.frames[e.rnd%uint64(len(e.frames))]
		if fr.page != mem.NoPage {
			return fr.page
		}
	}
}

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
		return e.victimRandom(e.ownedBits[o])
	}
	for sweep := 0; sweep < 2*len(e.frames); sweep++ {
		f := e.hand
		fr := &e.frames[f]
		e.hand = (e.hand + 1) % len(e.frames)
		if fr.page == mem.NoPage || fr.owner != o {
			continue
		}
		if accessBit(e, f) {
			clearAccessBit(e, f)
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
		if accessBit(e, i) {
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
		visit(fr.page, accessBit(e, i))
		if clear && accessBit(e, i) {
			fr.preload = false
		}
	}
}

// scanVisit is one page reported by a preload-bit scan.
type scanVisit struct {
	page     mem.PageID
	accessed bool
}

// TestOwnedScanDifferential drives an EPC using the bitset-backed global
// and owner scans and one using the linear reference scans through the
// same random Load/Touch/Evict/SelectVictim/SelectVictimOwned/scan
// sequence, under every policy, on dense and sparse page tables, at 0
// (implicit owner 0) to 64 owners and capacities up to 65536 frames (1 and
// 64 owners only at the largest), including capacities that leave the last
// bitset word partly filled (100, 4097). After every operation the two
// must agree on the victim, the CLOCK hand, every frame's page, owner,
// preload bit and FIFO/LRU stamps, and the access bitset word for word.
func TestOwnedScanDifferential(t *testing.T) {
	for _, capacity := range []int{64, 100, 4096, 4097, 65536} {
		ownerCounts := []int{0, 1, 5, 64}
		if capacity > 4097 {
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
						if testing.Short() && capacity > 4097 {
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
		for w := range fast.accessed {
			if fast.accessed[w] != ref.accessed[w] {
				t.Fatalf("step %d (%s): access word %d is %#x, reference %#x",
					step, op, w, fast.accessed[w], ref.accessed[w])
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
				fv, rv = fast.SelectVictim(), refSelectVictim(ref)
			} else {
				o := pickOwner()
				fv, rv = fast.SelectVictimOwned(o), refSelectVictimOwned(ref, o)
				if fv == mem.NoPage && rv == mem.NoPage {
					fv, rv = fast.SelectVictim(), refSelectVictim(ref)
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
			if fv, rv := fast.SelectVictim(), refSelectVictim(ref); fv != rv {
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
		if capacity <= 100 {
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

// TestClockAllAccessedLap parks the CLOCK hand at the edges of the
// word-at-a-time scan — bit 63 of a word and the last frame — on an EPC
// whose every frame is accessed, so the scan must lap the whole bitset,
// wrap through the hand's word and come back to the hand. The global and
// the owned scan must evict the first member at or after the hand, leave
// the hand just past it and clear every member's access bit on the way,
// exactly as the frame-by-frame reference does. Frames alternate between
// two owners, so the owned scan also has foreign frames to pass over
// without touching their bits.
func TestClockAllAccessedLap(t *testing.T) {
	for _, capacity := range []int{64, 100, 128, 4097} {
		for _, hand := range []int{63, capacity - 1} {
			for _, owned := range []bool{false, true} {
				name := fmt.Sprintf("cap=%d/hand=%d/owned=%v", capacity, hand, owned)
				t.Run(name, func(t *testing.T) {
					mk := func() *EPC {
						e := mustNew(t, capacity, uint64(2*capacity))
						addOwners(t, e, 2)
						// Frames are handed out in order; frame f holds owner
						// 0's page f when f has the hand's parity, else owner
						// 1's page capacity+f. Demand loads set every bit.
						for f := 0; f < capacity; f++ {
							p := mem.PageID(f)
							if f%2 != hand%2 {
								p += mem.PageID(capacity)
							}
							if err := e.Load(p, false); err != nil {
								t.Fatal(err)
							}
						}
						e.hand = hand
						return e
					}
					fast, ref := mk(), mk()
					var fv, rv mem.PageID
					if owned {
						fv, rv = fast.SelectVictimOwned(0), refSelectVictimOwned(ref, 0)
					} else {
						fv, rv = fast.SelectVictim(), refSelectVictim(ref)
					}
					if want := mem.PageID(hand); fv != want || rv != want {
						t.Fatalf("victim %d, reference %d; want the hand's frame %d", fv, rv, want)
					}
					if want := (hand + 1) % capacity; fast.hand != want || ref.hand != want {
						t.Fatalf("hand %d, reference %d; want %d", fast.hand, ref.hand, want)
					}
					if !slices.Equal(fast.accessed, ref.accessed) {
						t.Fatalf("access bits %#x, reference %#x", fast.accessed, ref.accessed)
					}
					// Every member lost its bit, the victim included; the
					// owned scan left owner 1's bits alone.
					if n := fast.OwnerAccessed(0); n != 0 {
						t.Fatalf("%d access bits survived the lap", n)
					}
					want := 0
					if owned {
						want = fast.OwnerResident(1)
					}
					if n := fast.OwnerAccessed(1); n != want {
						t.Fatalf("owner 1 keeps %d access bits, want %d", n, want)
					}
					if err := fast.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
