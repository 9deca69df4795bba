// Package epc models the SGX Enclave Page Cache: the scarce, fixed-size
// region of protected physical memory that enclave pages must occupy to be
// accessible.
//
// The model tracks, for every resident enclave page, the physical frame it
// occupies and two per-frame bits: the access bit (set by the hardware on
// every touch, cleared by the OS service thread — the input to CLOCK
// eviction and to DFP's accuracy counters) and the preload bit (set when
// the page was brought in by a preloader rather than by a demand fault).
//
// It also maintains the presence bitmap shared between the enclave and the
// untrusted OS that SIP's BIT_MAP_CHECK consults: one bit per enclave
// virtual page, updated only when a page is loaded or evicted. The paper
// notes this bitmap leaks nothing beyond what the OS already knows, since
// the OS manages EPC residency in the first place.
package epc

import (
	"fmt"
	"math/bits"

	"sgxpreload/internal/mem"
)

// FrameID indexes a physical EPC frame.
type FrameID uint32

// noFrame marks an unmapped page in the reverse map.
const noFrame = FrameID(1<<32 - 1)

// Policy selects the eviction victim-selection algorithm. The Intel SGX
// driver the paper builds on uses CLOCK second chance; the alternatives
// exist for the eviction-policy ablation.
type Policy int

// Eviction policies.
const (
	// PolicyClock is the driver's CLOCK second-chance algorithm
	// (default).
	PolicyClock Policy = iota
	// PolicyFIFO evicts the longest-resident page.
	PolicyFIFO
	// PolicyLRU evicts the least recently touched page (exact LRU — an
	// oracle the real driver cannot afford, since it would need a
	// timestamp update on every enclave access).
	PolicyLRU
	// PolicyRandom evicts a uniformly random resident page.
	PolicyRandom
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyClock:
		return "clock"
	case PolicyFIFO:
		return "fifo"
	case PolicyLRU:
		return "lru"
	case PolicyRandom:
		return "random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// frame is the per-physical-frame metadata the driver keeps.
type frame struct {
	page      mem.PageID // resident virtual page, mem.NoPage if free
	accessed  bool       // hardware access bit
	preload   bool       // page arrived via preloading, not a demand fault
	owner     int32      // owning enclave, stamped at Load, reset at Evict
	loadedAt  uint64     // load sequence number (FIFO policy)
	touchedAt uint64     // touch sequence number (LRU policy)
}

// EPC is the enclave page cache state for a single enclave.
//
// EPC is not safe for concurrent use; the simulator is a discrete-event
// model driven from one goroutine, matching the paper's single-threaded
// benchmarks.
type EPC struct {
	frames []frame
	free   []FrameID // LIFO free list
	// pt is the page→frame reverse mapping: a flat array indexed by
	// PageID for ELRANGEs up to maxDensePages (the common case — every
	// Present/Touch/Load/Evict is then array indexing), a map beyond.
	pt      pageTable
	present *Bitmap // shared presence bitmap (SIP's BIT_MAP_CHECK)
	hand    int     // CLOCK hand over frames
	pages   uint64  // ELRANGE size in pages (bitmap capacity)
	policy  Policy
	seq     uint64 // load/touch sequence counter for FIFO/LRU
	rnd     uint64 // xorshift state for PolicyRandom
	// Ownership: the shared page space is a sequence of disjoint
	// per-enclave ranges registered in ascending order via AddOwner.
	// ownerHi[i] is the exclusive upper bound of owner i's range (its
	// lower bound is ownerHi[i-1], or 0 for owner 0). With no owners
	// registered every page belongs to the implicit owner 0 — the solo
	// degenerate case, where ownership is pure bookkeeping.
	ownerHi    []mem.PageID
	resByOwner []int // resident frame count per owner
	// ownedBits[o] is owner o's frame membership bitset: bit f%64 of word
	// f/64 is set while frame f holds one of o's pages. Owner-scoped scans
	// walk it with bits.TrailingZeros64 in frame order, so they cost
	// O(owner frames + capacity/64) instead of O(capacity).
	ownedBits [][]uint64
	// preloaded mirrors every frame's preload bit in the same layout, so
	// the service thread's preload-bit scan visits only preloaded frames.
	preloaded []uint64
}

// New returns an EPC with capacity physical frames serving an enclave
// whose ELRANGE spans elrangePages virtual pages, using the driver's
// CLOCK eviction.
func New(capacity int, elrangePages uint64) (*EPC, error) {
	return NewWithPolicy(capacity, elrangePages, PolicyClock)
}

// NewWithPolicy is New with an explicit eviction policy.
func NewWithPolicy(capacity int, elrangePages uint64, policy Policy) (*EPC, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("epc: capacity must be positive, got %d", capacity)
	}
	if elrangePages == 0 {
		return nil, fmt.Errorf("epc: ELRANGE must span at least one page")
	}
	if policy < PolicyClock || policy > PolicyRandom {
		return nil, fmt.Errorf("epc: unknown eviction policy %d", policy)
	}
	e := &EPC{
		frames:  make([]frame, capacity),
		free:    make([]FrameID, 0, capacity),
		pt:      newPageTable(elrangePages, capacity),
		present: NewBitmap(elrangePages),
		pages:   elrangePages,
		policy:  policy,
		rnd:     0x2545f4914f6cdd1d,
		// One counter and bitset for the implicit owner 0 until AddOwner
		// is called.
		resByOwner: make([]int, 1),
		ownedBits:  [][]uint64{make([]uint64, (capacity+63)/64)},
		preloaded:  make([]uint64, (capacity+63)/64),
	}
	for i := range e.frames {
		e.frames[i].page = mem.NoPage
	}
	// Push frames so that frame 0 is handed out first.
	for i := capacity - 1; i >= 0; i-- {
		e.free = append(e.free, FrameID(i))
	}
	return e, nil
}

// Grow extends the ELRANGE page space to newPages without disturbing the
// physical side: frames, residency, access/preload bits, the CLOCK hand,
// and every existing page→frame mapping are untouched, so simulation
// behavior over the old pages is identical before and after. This is the
// dynamic-admission primitive — a newly launched enclave appends its
// virtual range to a host's shared page space mid-run. The page space
// only grows; asking for fewer pages than currently covered is an error.
func (e *EPC) Grow(newPages uint64) error {
	if newPages < e.pages {
		return fmt.Errorf("epc: cannot shrink ELRANGE from %d to %d pages", e.pages, newPages)
	}
	if newPages == e.pages {
		return nil
	}
	e.pt = growPageTable(e.pt, newPages, len(e.frames))
	e.present.Grow(newPages)
	e.pages = newPages
	return nil
}

// AddOwner registers the next enclave's page range, whose exclusive
// upper bound is hi (its lower bound is the previous owner's bound, or 0
// for the first owner). Ranges must be registered in ascending order
// before any page inside them is loaded, matching Engine.Admit, which
// grows the page space and registers the new range before the admitted
// enclave runs. Ownership is pure bookkeeping: it never changes which
// victim the global SelectVictim picks.
func (e *EPC) AddOwner(hi uint64) error {
	if hi > e.pages {
		return fmt.Errorf("epc: owner bound %d beyond ELRANGE of %d pages", hi, e.pages)
	}
	var lo mem.PageID
	if n := len(e.ownerHi); n > 0 {
		lo = e.ownerHi[n-1]
	}
	if mem.PageID(hi) <= lo {
		return fmt.Errorf("epc: owner bound %d not above previous bound %d", hi, lo)
	}
	e.ownerHi = append(e.ownerHi, mem.PageID(hi))
	if len(e.ownerHi) > 1 {
		e.resByOwner = append(e.resByOwner, 0)
		e.ownedBits = append(e.ownedBits, make([]uint64, (len(e.frames)+63)/64))
	}
	return nil
}

// ownerOf maps a page to its owning enclave index: binary search over the
// ascending range bounds, or the implicit owner 0 when none are
// registered.
func (e *EPC) ownerOf(page mem.PageID) int32 {
	lo, hi := 0, len(e.ownerHi)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if page >= e.ownerHi[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// Owners returns the number of registered owner ranges (0 when the EPC is
// running in the implicit single-owner mode).
func (e *EPC) Owners() int { return len(e.ownerHi) }

// OwnerOf returns the owner index of page.
func (e *EPC) OwnerOf(page mem.PageID) int { return int(e.ownerOf(page)) }

// OwnerResident returns the number of frames currently held by owner.
func (e *EPC) OwnerResident(owner int) int {
	if owner < 0 || owner >= len(e.resByOwner) {
		return 0
	}
	return e.resByOwner[owner]
}

// ownerBound returns the exclusive upper page bound of owner o's range:
// unbounded for the implicit owner 0 when no ranges are registered.
func (e *EPC) ownerBound(o int32) mem.PageID {
	if len(e.ownerHi) == 0 {
		return mem.NoPage
	}
	return e.ownerHi[o]
}

// OwnerAccessed counts owner's resident frames with the access bit set,
// without disturbing any bits. The adaptive quota policy samples it at
// scan boundaries as its working-set signal.
func (e *EPC) OwnerAccessed(owner int) int {
	if owner < 0 || owner >= len(e.ownedBits) {
		return 0
	}
	accessed := 0
	for w, m := range e.ownedBits[owner] {
		for ; m != 0; m &= m - 1 {
			if e.frames[w<<6|bits.TrailingZeros64(m)].accessed {
				accessed++
			}
		}
	}
	return accessed
}

// Capacity returns the number of physical frames.
func (e *EPC) Capacity() int { return len(e.frames) }

// Resident returns the number of occupied frames.
func (e *EPC) Resident() int { return e.pt.size() }

// Full reports whether every frame is occupied.
func (e *EPC) Full() bool { return e.pt.size() == len(e.frames) }

// Pages returns the ELRANGE size in pages.
func (e *EPC) Pages() uint64 { return e.pages }

// Present reports whether page is resident in the EPC.
func (e *EPC) Present(page mem.PageID) bool {
	_, ok := e.pt.lookup(page)
	return ok
}

// PresenceBitmap exposes the shared presence bitmap. SIP's runtime checks
// it from "inside the enclave"; the OS updates it on load and eviction.
func (e *EPC) PresenceBitmap() *Bitmap { return e.present }

// Touch sets the access bit of the frame holding page, mirroring the
// hardware setting the PTE accessed bit on every load/store. It reports
// whether the page was resident.
func (e *EPC) Touch(page mem.PageID) bool {
	f, ok := e.pt.lookup(page)
	if !ok {
		return false
	}
	e.frames[f].accessed = true
	if e.policy == PolicyLRU {
		e.seq++
		e.frames[f].touchedAt = e.seq
	}
	return true
}

// Load installs page into a free frame, marking it as preloaded when
// preloaded is true. It returns an error if the EPC is full (the caller
// must evict first — mirroring the driver, which runs EWB before ELDU when
// no free EPC page exists) or if the page is already resident.
func (e *EPC) Load(page mem.PageID, preloaded bool) error {
	if page >= mem.PageID(e.pages) {
		return fmt.Errorf("epc: page %d outside ELRANGE of %d pages", page, e.pages)
	}
	if _, ok := e.pt.lookup(page); ok {
		return fmt.Errorf("epc: page %d already resident", page)
	}
	if len(e.free) == 0 {
		return fmt.Errorf("epc: full (%d frames); evict before loading", len(e.frames))
	}
	f := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.seq++
	owner := e.ownerOf(page)
	e.frames[f] = frame{
		page:      page,
		accessed:  !preloaded,
		preload:   preloaded,
		owner:     owner,
		loadedAt:  e.seq,
		touchedAt: e.seq,
	}
	e.resByOwner[owner]++
	e.ownedBits[owner][f>>6] |= 1 << (f & 63)
	if preloaded {
		e.preloaded[f>>6] |= 1 << (f & 63)
	}
	e.pt.set(page, f)
	e.present.Set(uint64(page))
	return nil
}

// Evict removes page from the EPC (the EWB path). It reports whether the
// page was resident.
func (e *EPC) Evict(page mem.PageID) bool {
	f, ok := e.pt.lookup(page)
	if !ok {
		return false
	}
	owner := e.frames[f].owner
	e.resByOwner[owner]--
	e.ownedBits[owner][f>>6] &^= 1 << (f & 63)
	e.preloaded[f>>6] &^= 1 << (f & 63)
	e.frames[f] = frame{page: mem.NoPage}
	e.free = append(e.free, f)
	e.pt.remove(page)
	e.present.Clear(uint64(page))
	return true
}

// SelectVictim returns the page the configured policy would evict, or
// mem.NoPage if the EPC is empty.
//
// Under CLOCK (the driver's algorithm), frames with the access bit set get
// a second chance (the bit is cleared and the hand moves on); the first
// frame found with a clear access bit is the victim. With every bit set
// the hand wraps once, clearing as it goes, and evicts the frame it
// started from — guaranteeing termination.
func (e *EPC) SelectVictim() mem.PageID {
	if e.pt.size() == 0 {
		return mem.NoPage
	}
	switch e.policy {
	case PolicyFIFO:
		return e.victimByMin(func(fr *frame) uint64 { return fr.loadedAt })
	case PolicyLRU:
		return e.victimByMin(func(fr *frame) uint64 { return fr.touchedAt })
	case PolicyRandom:
		return e.victimRandom()
	}
	for sweep := 0; sweep < 2*len(e.frames); sweep++ {
		fr := &e.frames[e.hand]
		e.hand = (e.hand + 1) % len(e.frames)
		if fr.page == mem.NoPage {
			continue
		}
		if fr.accessed {
			fr.accessed = false
			continue
		}
		return fr.page
	}
	// Unreachable: two sweeps over a non-empty table must find a frame
	// whose bit was cleared on the first pass.
	panic("epc: CLOCK failed to select a victim")
}

// SelectVictimOwned is SelectVictim restricted to frames held by owner:
// the quota arbiter uses it to make an over-quota enclave self-evict or
// to steal from a specific over-quota owner. It returns mem.NoPage when
// owner holds no frames (the caller falls back to the global scan).
//
// The filtered CLOCK shares the global hand but gives other owners'
// frames a free pass — their access bits are NOT cleared, so arbitrated
// and global runs age foreign frames identically. It visits only owner's
// frames, in the order a frame-by-frame sweep from the hand would, so the
// victim, the final hand and every access bit match that sweep. The
// filtered Random scan draws from the same xorshift stream as the global
// one (acceptable because the two are never mixed within one run: a run
// either uses the arbiter everywhere or nowhere).
func (e *EPC) SelectVictimOwned(owner int) mem.PageID {
	if e.OwnerResident(owner) == 0 {
		return mem.NoPage
	}
	o := int32(owner)
	switch e.policy {
	case PolicyFIFO:
		return e.victimByMinOwned(o, func(fr *frame) uint64 { return fr.loadedAt })
	case PolicyLRU:
		return e.victimByMinOwned(o, func(fr *frame) uint64 { return fr.touchedAt })
	case PolicyRandom:
		return e.victimRandomOwned(o)
	}
	// Terminates: owner holds >= 1 frame, and one lap around its frames
	// clears every access bit it meets.
	owned := e.ownedBits[o]
	for f := e.hand; ; {
		g := nextOwned(owned, f)
		if g < 0 {
			g = nextOwned(owned, 0) // wrap past the last frame
		}
		fr := &e.frames[g]
		if fr.accessed {
			fr.accessed = false
			f = g + 1
			continue
		}
		e.hand = (g + 1) % len(e.frames)
		return fr.page
	}
}

// nextOwned returns the first frame at or after from whose bit is set in
// the membership bitset owned, or -1 when there is none.
func nextOwned(owned []uint64, from int) int {
	w := from >> 6
	if w >= len(owned) {
		return -1
	}
	m := owned[w] &^ (1<<(uint(from)&63) - 1)
	for m == 0 {
		if w++; w == len(owned) {
			return -1
		}
		m = owned[w]
	}
	return w<<6 | bits.TrailingZeros64(m)
}

// victimByMinOwned returns owner's frame minimizing key, the first in
// frame order on ties.
func (e *EPC) victimByMinOwned(owner int32, key func(*frame) uint64) mem.PageID {
	victim := mem.NoPage
	best := uint64(0)
	for w, m := range e.ownedBits[owner] {
		for ; m != 0; m &= m - 1 {
			fr := &e.frames[w<<6|bits.TrailingZeros64(m)]
			if k := key(fr); victim == mem.NoPage || k < best {
				victim, best = fr.page, k
			}
		}
	}
	return victim
}

// victimRandomOwned picks a uniformly random frame held by owner
// (rejection sampling; terminates because the caller checked owner holds
// at least one frame).
func (e *EPC) victimRandomOwned(owner int32) mem.PageID {
	for {
		e.rnd ^= e.rnd << 13
		e.rnd ^= e.rnd >> 7
		e.rnd ^= e.rnd << 17
		fr := &e.frames[e.rnd%uint64(len(e.frames))]
		if fr.page != mem.NoPage && fr.owner == owner {
			return fr.page
		}
	}
}

// victimByMin scans for the occupied frame minimizing key.
func (e *EPC) victimByMin(key func(*frame) uint64) mem.PageID {
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

// victimRandom picks a uniformly random occupied frame (deterministic
// xorshift so runs stay reproducible).
func (e *EPC) victimRandom() mem.PageID {
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

// Preloaded reports whether page is resident and arrived via preloading.
func (e *EPC) Preloaded(page mem.PageID) bool {
	f, ok := e.pt.lookup(page)
	return ok && e.frames[f].preload
}

// Accessed reports whether page is resident with its access bit set.
func (e *EPC) Accessed(page mem.PageID) bool {
	f, ok := e.pt.lookup(page)
	return ok && e.frames[f].accessed
}

// ScanPreloadBitsRange visits every resident preloaded page in [lo, hi)
// and reports it to visit together with its access bit. The kernel
// service thread piggybacks on its CLOCK access-bit scan to maintain
// DFP's PreloadedPageList; this method is that scan. When clear is true
// the preload bit of visited accessed pages is cleared so each correct
// preload is counted once. In multi-enclave mode each enclave's service
// scan covers only its own ELRANGE slice of the shared EPC; [0, Pages())
// scans the whole page space. Pages are visited in frame
// order, and only preloaded frames are walked: those of one owner when
// [lo, hi) lies inside that owner's range (every kernel's own slice, solo
// runs included), else every owner's.
func (e *EPC) ScanPreloadBitsRange(lo, hi mem.PageID, clear bool, visit func(page mem.PageID, accessed bool)) {
	var owned []uint64
	if o := e.ownerOf(lo); int(o) < len(e.ownedBits) && hi <= e.ownerBound(o) {
		owned = e.ownedBits[o]
	}
	for w, m := range e.preloaded {
		if owned != nil {
			m &= owned[w]
		}
		for ; m != 0; m &= m - 1 {
			f := w<<6 | bits.TrailingZeros64(m)
			fr := &e.frames[f]
			if fr.page < lo || fr.page >= hi {
				continue
			}
			visit(fr.page, fr.accessed)
			if clear && fr.accessed {
				fr.preload = false
				e.preloaded[w] &^= 1 << (f & 63)
			}
		}
	}
}

// ResidentPages returns the resident page set in frame order; for tests
// and tooling.
func (e *EPC) ResidentPages() []mem.PageID {
	pages := make([]mem.PageID, 0, e.pt.size())
	for i := range e.frames {
		if p := e.frames[i].page; p != mem.NoPage {
			pages = append(pages, p)
		}
	}
	return pages
}

// CheckInvariants verifies internal consistency: the page table, frame
// table, free list, presence bitmap, per-owner membership bitsets and
// preload bitset must agree. Tests call it after random operation sequences.
func (e *EPC) CheckInvariants() error {
	occupied := 0
	seen := make(map[FrameID]bool, len(e.frames))
	resByOwner := make([]int, len(e.resByOwner))
	for i := range e.frames {
		p := e.frames[i].page
		if p == mem.NoPage {
			continue
		}
		occupied++
		seen[FrameID(i)] = true
		f, ok := e.pt.lookup(p)
		if !ok || f != FrameID(i) {
			return fmt.Errorf("epc: frame %d holds page %d, page table says (%d, %v)",
				i, p, f, ok)
		}
		if !e.present.Get(uint64(p)) {
			return fmt.Errorf("epc: resident page %d absent from presence bitmap", p)
		}
		if o := e.frames[i].owner; o != e.ownerOf(p) {
			return fmt.Errorf("epc: frame %d (page %d) stamped owner %d, range says %d",
				i, p, o, e.ownerOf(p))
		}
		resByOwner[e.frames[i].owner]++
	}
	// Per-owner resident counters must agree with the frame stamps and
	// sum to the occupied total.
	ownedTotal := 0
	for o, n := range resByOwner {
		if e.resByOwner[o] != n {
			return fmt.Errorf("epc: owner %d counter says %d resident, frames say %d",
				o, e.resByOwner[o], n)
		}
		ownedTotal += n
	}
	if ownedTotal != occupied {
		return fmt.Errorf("epc: per-owner counts sum to %d, %d frames occupied",
			ownedTotal, occupied)
	}
	// Each owner's bitset holds exactly the frames stamped with that owner,
	// so its popcount is the owner's resident counter.
	if len(e.ownedBits) != len(e.resByOwner) {
		return fmt.Errorf("epc: %d owner bitsets for %d owners", len(e.ownedBits), len(e.resByOwner))
	}
	for o, owned := range e.ownedBits {
		for i := range e.frames {
			set := owned[i>>6]&(1<<(i&63)) != 0
			if stamped := e.frames[i].page != mem.NoPage && int(e.frames[i].owner) == o; set != stamped {
				return fmt.Errorf("epc: owner %d bitset says frame %d held = %v, frame says %v",
					o, i, set, stamped)
			}
		}
		n := 0
		for _, w := range owned {
			n += bits.OnesCount64(w)
		}
		if n != e.resByOwner[o] {
			return fmt.Errorf("epc: owner %d bitset holds %d frames, counter says %d",
				o, n, e.resByOwner[o])
		}
	}
	preloaded := 0
	for i := range e.frames {
		set := e.preloaded[i>>6]&(1<<(i&63)) != 0
		if set != e.frames[i].preload {
			return fmt.Errorf("epc: preload bitset says frame %d = %v, frame says %v",
				i, set, e.frames[i].preload)
		}
		if set {
			preloaded++
		}
	}
	n := 0
	for _, w := range e.preloaded {
		n += bits.OnesCount64(w)
	}
	if n != preloaded {
		return fmt.Errorf("epc: preload bitset holds %d bits past the last frame", n-preloaded)
	}
	// Entry counts matching plus every occupied frame resolving back to
	// itself rules out stale or duplicated page-table entries.
	if e.pt.size() != occupied {
		return fmt.Errorf("epc: page table holds %d entries, %d frames occupied",
			e.pt.size(), occupied)
	}
	if occupied+len(e.free) != len(e.frames) {
		return fmt.Errorf("epc: %d mapped + %d free != %d frames",
			occupied, len(e.free), len(e.frames))
	}
	for _, f := range e.free {
		if seen[f] {
			return fmt.Errorf("epc: frame %d both free and mapped", f)
		}
		seen[f] = true
		if e.frames[f].page != mem.NoPage {
			return fmt.Errorf("epc: free frame %d holds page %d", f, e.frames[f].page)
		}
	}
	if got := e.present.Count(); got != uint64(occupied) {
		return fmt.Errorf("epc: presence bitmap count %d != %d resident", got, occupied)
	}
	return nil
}
