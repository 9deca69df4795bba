package epc

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

// pageModel is the reference page table for TestPageTableDifferential: a
// page→frame map, plus the LIFO free list that decides which frame a load
// takes.
type pageModel struct {
	frames map[mem.PageID]FrameID
	free   []FrameID
}

func newPageModel(capacity int) *pageModel {
	m := &pageModel{frames: make(map[mem.PageID]FrameID, capacity)}
	for f := capacity - 1; f >= 0; f-- {
		m.free = append(m.free, FrameID(f))
	}
	return m
}

func (m *pageModel) load(p mem.PageID) {
	m.frames[p] = m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
}

func (m *pageModel) evict(p mem.PageID) bool {
	f, ok := m.frames[p]
	if ok {
		delete(m.frames, p)
		m.free = append(m.free, f)
	}
	return ok
}

// TestPageTableDifferential drives an EPC and a map-backed reference page
// table through a random load/touch/evict/victim schedule under every
// eviction policy, growing the page space twice mid-run, to 2²² pages and
// past it (the sizes at which the EPC used to switch to a map), each growth
// registering a new owner for the grown range as Engine.Admit does, and
// every load stamped with its page's owner. After every step each page of
// the schedule must agree with the model on residency, frame and presence;
// Resident and the per-owner counts must match the model, and every victim,
// the frame bits of a probed page and the failure of a load of a resident
// page must be consistent with it.
func TestPageTableDifferential(t *testing.T) {
	const (
		capacity = 8
		pages    = 128
		steps    = 8000
		owners   = 4 // pages split into 4 equal owner ranges
		window   = 64
	)
	// Each growth adds an owner range and the top window pages of it to the
	// schedule's page set.
	grows := map[int]uint64{2000: 1 << 22, 4000: 1<<22 + pages}
	for _, policy := range []Policy{PolicyClock, PolicyFIFO, PolicyLRU, PolicyRandom} {
		t.Run(policy.String(), func(t *testing.T) {
			e, err := NewWithPolicy(capacity, pages, policy)
			if err != nil {
				t.Fatal(err)
			}
			// bounds[o] is owner o's exclusive upper page bound; its
			// lower bound is bounds[o-1], or 0 for owner 0.
			var bounds []mem.PageID
			addOwner := func(hi uint64) {
				t.Helper()
				if len(bounds) > 0 {
					if o := e.AddOwner(); o != len(bounds) {
						t.Fatalf("AddOwner() = %d, want %d", o, len(bounds))
					}
				}
				bounds = append(bounds, mem.PageID(hi))
			}
			for o := 1; o <= owners; o++ {
				addOwner(uint64(o) * pages / owners)
			}
			universe := make([]mem.PageID, 0, pages+2*window)
			for p := mem.PageID(0); p < pages; p++ {
				universe = append(universe, p)
			}
			model := newPageModel(capacity)
			pageOwner := func(p mem.PageID) int {
				o := 0
				for p >= bounds[o] {
					o++
				}
				return o
			}
			resident := func(v mem.PageID) bool {
				f, ok := model.frames[v]
				return ok && e.frames[f].page == v
			}

			r := rng.New(1337)
			for i := 0; i < steps; i++ {
				if n, ok := grows[i]; ok {
					if err := e.Grow(n); err != nil {
						t.Fatalf("step %d: Grow(%d): %v", i, n, err)
					}
					addOwner(n)
					for p := mem.PageID(n - window); p < mem.PageID(n); p++ {
						universe = append(universe, p)
					}
				}
				p := universe[r.Intn(len(universe))]
				switch r.Intn(6) {
				case 0: // load (evicting if full), preload flag varies
					if _, ok := model.frames[p]; ok {
						if err := e.Load(p, pageOwner(p), false); err == nil {
							t.Fatalf("step %d: Load of resident page %d succeeded", i, p)
						}
						break
					}
					if e.Full() {
						v := e.SelectVictim()
						if !resident(v) {
							t.Fatalf("step %d: victim %d not resident in the model", i, v)
						}
						e.Evict(v)
						model.evict(v)
					}
					if err := e.Load(p, pageOwner(p), r.Intn(2) == 0); err != nil {
						t.Fatalf("step %d: Load(%d): %v", i, p, err)
					}
					model.load(p)
				case 1:
					if got, want := e.Evict(p), model.evict(p); got != want {
						t.Fatalf("step %d: Evict(%d) = %v, model %v", i, p, got, want)
					}
				case 2:
					if _, want := model.frames[p]; e.Touch(p) != want {
						t.Fatalf("step %d: Touch(%d) = %v, model %v", i, p, !want, want)
					}
				case 3:
					if v := e.SelectVictim(); !resident(v) {
						t.Fatalf("step %d: SelectVictim = %d, not resident in the model", i, v)
					}
				case 4:
					f, ok := model.frames[p]
					if e.Preloaded(p) != (ok && preloadBit(e, int(f))) || e.Accessed(p) != (ok && accessBit(e, int(f))) {
						t.Fatalf("step %d: frame bits of page %d disagree with the model's frame %d", i, p, f)
					}
				case 5: // owner-filtered victim scan
					o := r.Intn(len(bounds))
					v := e.SelectVictimOwned(o)
					held := false
					for q := range model.frames {
						held = held || pageOwner(q) == o
					}
					if (v == mem.NoPage && held) || (v != mem.NoPage && (!resident(v) || pageOwner(v) != o)) {
						t.Fatalf("step %d: SelectVictimOwned(%d) = %d, owner holds frames: %v", i, o, v, held)
					}
				}
				if e.Resident() != len(model.frames) {
					t.Fatalf("step %d: Resident = %d, model %d", i, e.Resident(), len(model.frames))
				}
				for _, q := range universe {
					mf, mok := model.frames[q]
					if f, ok := e.frameOf(q); ok != mok || ok && f != mf {
						t.Fatalf("step %d: page %d maps to (%d, %v), model (%d, %v)", i, q, f, ok, mf, mok)
					}
					if e.Present(q) != mok {
						t.Fatalf("step %d: page %d presence disagrees with the model (%v)", i, q, mok)
					}
				}
				// Per-owner counts agree with the model and sum to the
				// resident total.
				byOwner := make([]int, len(bounds))
				for q := range model.frames {
					byOwner[pageOwner(q)]++
				}
				for o, n := range byOwner {
					if got := e.OwnerResident(o); got != n {
						t.Fatalf("step %d: OwnerResident(%d) = %d, model %d", i, o, got, n)
					}
				}
				if i%1000 == 0 {
					if err := e.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
			}
			if e.Pages() != 1<<22+pages {
				t.Fatalf("Pages = %d after growth, want %d", e.Pages(), 1<<22+pages)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The reference scans below are the frame-walking implementations the
// membership bitsets replaced, kept as the oracle for
// TestOwnedScanDifferential. They walk frame by frame exactly as before;
// only the access bit, which now lives in a bitset rather than in the
// frame, is read and cleared through accessBit and clearAccessBit.

// accessBit reports frame f's access bit.
func accessBit(e *EPC, f int) bool { return e.accessed[f>>6]&(1<<(f&63)) != 0 }

// preloadBit reads frame f's preload bit.
func preloadBit(e *EPC, f int) bool { return e.preloaded[f>>6]&(1<<(f&63)) != 0 }

// clearAccessBit clears frame f's access bit, one frame at a time.
func clearAccessBit(e *EPC, f int) { e.accessed[f>>6] &^= 1 << (f & 63) }

// refSelectVictim is the linear global victim scan.
func refSelectVictim(e *EPC) mem.PageID {
	if e.Resident() == 0 {
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

// refScanPreloadBitsRange is the frame-walking preload-bit scan over the
// pages in [lo, hi), the oracle for ClearAccessedPreloads over an owner's
// range.
func refScanPreloadBitsRange(e *EPC, lo, hi mem.PageID, clear bool, visit func(page mem.PageID, accessed bool)) {
	for i := range e.frames {
		fr := &e.frames[i]
		if fr.page == mem.NoPage || !preloadBit(e, i) || fr.page < lo || fr.page >= hi {
			continue
		}
		visit(fr.page, accessBit(e, i))
		if clear && accessBit(e, i) {
			e.preloaded[i>>6] &^= 1 << (i & 63)
		}
	}
}

// TestOwnedScanDifferential drives an EPC using the bitset-backed global
// and owner scans and one using the linear reference scans through the
// same random Load/Touch/Evict/SelectVictim/SelectVictimOwned/scan
// sequence, under every policy, on dense and sparse page spaces, at 0
// (implicit owner 0) to 64 owners and capacities up to 65536 frames (1 and
// 64 owners only at the largest), including capacities that leave the last
// bitset word partly filled (100, 4097). The owners' ranges have random
// sizes and lie in random order, since the loader's stamp, not a page
// bound, decides ownership. The scan step checks ClearAccessedPreloads
// against the frame walk over the owner's range. After every operation
// the two must agree on the victim, the scan's count, the CLOCK hand,
// every frame's page, owner and FIFO/LRU stamps, and the access and
// preload bitsets word for word.
// A dense space holds 2×capacity pages; a sparse one runs the same
// schedule on every page number multiplied by a stride that spreads the
// space past 2²² pages, the sizes a map-backed page table once served.
func TestOwnedScanDifferential(t *testing.T) {
	for _, capacity := range []int{64, 100, 4096, 4097, 65536} {
		ownerCounts := []int{0, 1, 5, 64}
		if capacity > 4097 {
			ownerCounts = []int{1, 64} // the extremes: each cell costs O(capacity) per step
		}
		for _, owners := range ownerCounts {
			for _, policy := range []Policy{PolicyClock, PolicyFIFO, PolicyLRU, PolicyRandom} {
				for _, sparse := range []bool{false, true} {
					layout := "dense"
					if sparse {
						layout = "sparse"
					}
					name := fmt.Sprintf("cap=%d/owners=%d/%v/%s", capacity, owners, policy, layout)
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
	// The schedule draws from 2×capacity slots; slot q is page q×stride.
	slots, stride := uint64(2*capacity), uint64(1)
	if sparse {
		stride = 1<<22/slots + 1
	}
	nOwners := max(owners, 1)
	mk := func() *EPC {
		e, err := NewWithPolicy(capacity, slots*stride, policy)
		if err != nil {
			t.Fatal(err)
		}
		for o := 1; o < nOwners; o++ {
			e.AddOwner()
		}
		return e
	}
	fast, ref := mk(), mk()
	r := rng.New(uint64(capacity)*131 + uint64(owners)*7 + uint64(policy))
	// The layout: cuts split the slots into nOwners non-empty runs of
	// random size, and run j belongs to owner perm[j].
	cutSet := map[uint64]bool{0: true, slots: true}
	for len(cutSet) < nOwners+1 {
		cutSet[1+uint64(r.Intn(int(slots-1)))] = true
	}
	cuts := slices.Sorted(maps.Keys(cutSet))
	perm := make([]int, nOwners)
	for j := range perm {
		perm[j] = j
	}
	for j := len(perm) - 1; j > 0; j-- {
		k := r.Intn(j + 1)
		perm[j], perm[k] = perm[k], perm[j]
	}
	run := make([]int, nOwners) // run[o] is owner o's run
	for j, o := range perm {
		run[o] = j
	}
	// slotRange is owner o's range in slots; ownerRange in pages.
	slotRange := func(o int) (lo, hi uint64) { return cuts[run[o]], cuts[run[o]+1] }
	ownerRange := func(o int) (lo, hi mem.PageID) {
		slo, shi := slotRange(o)
		return mem.PageID(slo * stride), mem.PageID(shi * stride)
	}
	pageOwner := func(p mem.PageID) int {
		slot := uint64(p) / stride
		j, _ := slices.BinarySearch(cuts, slot+1)
		return perm[j-1]
	}
	// Skewed owner choice, so owners hold very different frame shares.
	pickOwner := func() int { return r.Intn(r.Intn(nOwners) + 1) }
	pickPage := func() mem.PageID {
		lo, hi := slotRange(pickOwner())
		return mem.PageID((lo + uint64(r.Intn(int(hi-lo)))) * stride)
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
			if fast.accessed[w] != ref.accessed[w] || fast.preloaded[w] != ref.preloaded[w] {
				t.Fatalf("step %d (%s): access/preload word %d is %#x/%#x, reference %#x/%#x",
					step, op, w, fast.accessed[w], fast.preloaded[w], ref.accessed[w], ref.preloaded[w])
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
		if err := fast.Load(p, pageOwner(p), pre); err != nil {
			t.Fatalf("step %d: Load(%d): %v", step, p, err)
		}
		if err := ref.Load(p, pageOwner(p), pre); err != nil {
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
			// The kernel's service scan: count and clear one owner's
			// accessed preloads.
			o := pickOwner()
			lo, hi := ownerRange(o)
			want := 0
			refScanPreloadBitsRange(ref, lo, hi, true, func(_ mem.PageID, acc bool) {
				if acc {
					want++
				}
			})
			if got := fast.ClearAccessedPreloads(o); got != want {
				t.Fatalf("step %d: ClearAccessedPreloads(%d) = %d, reference %d over [%d, %d)", i, o, got, want, lo, hi)
			}
		}
		same(i, op)
		// CheckInvariants walks the whole page table, over 2²² entries in
		// a sparse row, so sparse rows check every 500th step.
		if capacity <= 100 && (!sparse || i%500 == 0) {
			if err := fast.CheckInvariants(); err != nil {
				t.Fatalf("step %d (%s): %v", i, op, err)
			}
		}
	}
	for _, e := range []*EPC{fast, ref} {
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
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
						owner := addOwners(t, e, 2)
						// Frames are handed out in order; frame f holds owner
						// 0's page f when f has the hand's parity, else owner
						// 1's page capacity+f. Demand loads set every bit.
						for f := 0; f < capacity; f++ {
							p := mem.PageID(f)
							if f%2 != hand%2 {
								p += mem.PageID(capacity)
							}
							if err := e.Load(p, owner(p), false); err != nil {
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
