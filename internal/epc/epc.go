// Package epc models the SGX Enclave Page Cache: the scarce, fixed-size
// region of protected physical memory that enclave pages must occupy to be
// accessible.
//
// The model tracks, for every resident enclave page, the physical frame it
// occupies and two per-frame bits: the access bit (set by the hardware on
// every touch, cleared by the OS service thread — the input to CLOCK
// eviction and to DFP's accuracy counters) and the preload bit (set when
// the page was brought in by a preloader rather than by a demand fault).
// Per-frame facts that scans test — occupancy, ownership, the access bit
// and the preload bit — are kept as frame-indexed bitsets (bit f%64 of
// word f/64), so CLOCK advances a word at a time and working-set counts
// are popcounts.
//
// Each fact is kept once. Presence is the page table: Present answers
// SIP's BIT_MAP_CHECK, the bitmap the paper shares between the enclave
// and the untrusted OS (it leaks nothing beyond what the OS already
// knows, since the OS manages EPC residency in the first place).
// Ownership is the stamp the loader passes to Load; the EPC holds no
// page ranges, so the page space's layout is the caller's alone.
package epc

import (
	"fmt"
	"math/bits"

	"sgxpreload/internal/mem"
)

// FrameID indexes a physical EPC frame.
type FrameID uint32

// MaxPages bounds the ELRANGE page space of one EPC: 2²⁸ pages, a 1 TiB
// ELRANGE of 4 KiB pages. The page table costs 4 bytes per page (1 GiB at
// the bound), so every space New or Grow accepts can actually be
// allocated; a larger one is an error.
const MaxPages = 1 << 28

// PageSpaceError reports a page space past MaxPages, asked of New (Grow
// false) or of Grow. It is a comparable value, so errors.Is matches it
// through any wrapping, and errors.As recovers the requested size.
type PageSpaceError struct {
	Pages uint64 // the requested page space
	Grow  bool   // whether Grow, rather than New, asked for it
}

func (e PageSpaceError) Error() string {
	if e.Grow {
		return fmt.Sprintf("epc: cannot grow ELRANGE to %d pages beyond the maximum of %d pages", e.Pages, MaxPages)
	}
	return fmt.Sprintf("epc: ELRANGE of %d pages exceeds the maximum of %d pages", e.Pages, MaxPages)
}

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

// PolicyByName resolves an eviction policy from its String name.
func PolicyByName(name string) (Policy, error) {
	for p := PolicyClock; p <= PolicyRandom; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("epc: unknown eviction policy %q (want clock, fifo, lru, or random)", name)
}

// Validate reports whether p is one of the defined policies. NewWithPolicy
// checks it, and so does an engine at construction, before its first
// EPC exists.
func (p Policy) Validate() error {
	if p < PolicyClock || p > PolicyRandom {
		return fmt.Errorf("epc: unknown eviction policy %d", p)
	}
	return nil
}

// frame is the per-physical-frame metadata the driver keeps.
type frame struct {
	page      mem.PageID // resident virtual page, mem.NoPage if free
	owner     int32      // owning enclave, stamped at Load, reset at Evict
	loadedAt  uint64     // load sequence number (FIFO policy)
	touchedAt uint64     // touch sequence number (LRU policy)
}

// EPC is the enclave page cache state for a single enclave, or for every
// enclave sharing one EPC. Its page→frame map is a single slice indexed
// by page, so the page space it serves is bounded by MaxPages.
//
// EPC is not safe for concurrent use; the simulator is a discrete-event
// model driven from one goroutine, matching the paper's single-threaded
// benchmarks.
type EPC struct {
	frames []frame
	free   []FrameID // LIFO free list; Resident is what it leaves
	// pt is the page→frame reverse mapping, one entry per ELRANGE page
	// holding the resident page's frame plus one, so the zero value means
	// absent: Present, Touch, Load and Evict are array indexing, and the
	// table is allocated and grown zero-filled. It is also the presence
	// bitmap SIP's BIT_MAP_CHECK reads.
	pt     []FrameID
	hand   int // CLOCK hand over frames
	policy Policy
	seq    uint64 // load/touch sequence counter for FIFO/LRU
	rnd    uint64 // xorshift state for PolicyRandom
	// Ownership: every frame is stamped at Load with the owner its loader
	// names. Owner 0 exists from New — the solo case, where ownership is
	// pure bookkeeping — and AddOwner appends the next.
	resByOwner []int // resident frame count per owner
	// ownedBits[o] is owner o's frame membership bitset: bit f%64 of word
	// f/64 is set while frame f holds one of o's pages. Owner-scoped scans
	// walk it with bits.TrailingZeros64 in frame order, so they cost
	// O(owner frames + capacity/64) instead of O(capacity).
	ownedBits [][]uint64
	// occupied marks every frame that holds a page, in the same layout:
	// the global victim scan is the owned scan over it.
	occupied []uint64
	// preloaded holds every frame's preload bit in the same layout (the
	// only copy of it), so the service thread's preload-bit scan visits
	// only preloaded frames.
	preloaded []uint64
	// accessed holds every frame's hardware access bit in the same layout
	// (the only copy of it): CLOCK clears a word's member bits in one
	// store, and an owner's working set is a popcount.
	accessed []uint64
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
	if elrangePages > MaxPages {
		return nil, PageSpaceError{Pages: elrangePages}
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	e := &EPC{
		frames:     make([]frame, capacity),
		free:       make([]FrameID, 0, capacity),
		pt:         make([]FrameID, elrangePages),
		policy:     policy,
		rnd:        0x2545f4914f6cdd1d,
		resByOwner: make([]int, 1),
		ownedBits:  [][]uint64{make([]uint64, (capacity+63)/64)},
		occupied:   make([]uint64, (capacity+63)/64),
		preloaded:  make([]uint64, (capacity+63)/64),
		accessed:   make([]uint64, (capacity+63)/64),
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
// only grows; asking for fewer pages than currently covered, or for more
// than MaxPages, is an error and leaves the EPC unchanged.
func (e *EPC) Grow(newPages uint64) error {
	pages := e.Pages()
	if newPages < pages {
		return fmt.Errorf("epc: cannot shrink ELRANGE from %d to %d pages", pages, newPages)
	}
	if newPages > MaxPages {
		return PageSpaceError{Pages: newPages, Grow: true}
	}
	if newPages == pages {
		return nil
	}
	e.pt = append(e.pt, make([]FrameID, newPages-pages)...)
	return nil
}

// AddOwner registers the next owner and returns its index: 1 for the
// first call, since owner 0 exists from New. Engine.Admit calls it for
// every enclave after the first, so owner i is enclave i. Ownership is
// pure bookkeeping: it never changes which victim the global
// SelectVictim picks.
func (e *EPC) AddOwner() int {
	e.resByOwner = append(e.resByOwner, 0)
	e.ownedBits = append(e.ownedBits, make([]uint64, len(e.occupied)))
	return len(e.resByOwner) - 1
}

// OwnerResident returns the number of frames currently held by owner.
func (e *EPC) OwnerResident(owner int) int {
	if owner < 0 || owner >= len(e.resByOwner) {
		return 0
	}
	return e.resByOwner[owner]
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
		accessed += bits.OnesCount64(m & e.accessed[w])
	}
	return accessed
}

// Capacity returns the number of physical frames.
func (e *EPC) Capacity() int { return len(e.frames) }

// Resident returns the number of occupied frames.
func (e *EPC) Resident() int { return len(e.frames) - len(e.free) }

// Full reports whether every frame is occupied.
func (e *EPC) Full() bool { return len(e.free) == 0 }

// Pages returns the ELRANGE size in pages.
func (e *EPC) Pages() uint64 { return uint64(len(e.pt)) }

// frameOf returns the frame holding page and whether page is resident.
// Pages outside ELRANGE read as absent.
func (e *EPC) frameOf(page mem.PageID) (FrameID, bool) {
	if uint64(page) >= uint64(len(e.pt)) {
		return 0, false
	}
	f := e.pt[page]
	return f - 1, f != 0
}

// Present reports whether page is resident in the EPC. It is SIP's
// BIT_MAP_CHECK, which the enclave runs without an exit: pages outside
// ELRANGE read as absent.
func (e *EPC) Present(page mem.PageID) bool {
	_, ok := e.frameOf(page)
	return ok
}

// Touch sets the access bit of the frame holding page, mirroring the
// hardware setting the PTE accessed bit on every load/store. It reports
// whether the page was resident.
func (e *EPC) Touch(page mem.PageID) bool {
	f, ok := e.frameOf(page)
	if !ok {
		return false
	}
	e.accessed[f>>6] |= 1 << (f & 63)
	if e.policy == PolicyLRU {
		e.seq++
		e.frames[f].touchedAt = e.seq
	}
	return true
}

// Load installs page into a free frame stamped with owner, marking it as
// preloaded when preloaded is true. It returns an error if the EPC is
// full (the caller must evict first — mirroring the driver, which runs
// EWB before ELDU when no free EPC page exists), if the page is already
// resident, or if owner is not registered.
func (e *EPC) Load(page mem.PageID, owner int, preloaded bool) error {
	if uint64(page) >= e.Pages() {
		return fmt.Errorf("epc: page %d outside ELRANGE of %d pages", page, e.Pages())
	}
	if owner < 0 || owner >= len(e.resByOwner) {
		return fmt.Errorf("epc: owner %d not registered (%d owners)", owner, len(e.resByOwner))
	}
	if _, ok := e.frameOf(page); ok {
		return fmt.Errorf("epc: page %d already resident", page)
	}
	if len(e.free) == 0 {
		return fmt.Errorf("epc: full (%d frames); evict before loading", len(e.frames))
	}
	f := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.seq++
	e.frames[f] = frame{
		page:      page,
		owner:     int32(owner),
		loadedAt:  e.seq,
		touchedAt: e.seq,
	}
	e.resByOwner[owner]++
	e.ownedBits[owner][f>>6] |= 1 << (f & 63)
	e.occupied[f>>6] |= 1 << (f & 63)
	if preloaded {
		e.preloaded[f>>6] |= 1 << (f & 63)
	} else {
		e.accessed[f>>6] |= 1 << (f & 63)
	}
	e.pt[page] = f + 1
	return nil
}

// Evict removes page from the EPC (the EWB path). It reports whether the
// page was resident.
func (e *EPC) Evict(page mem.PageID) bool {
	f, ok := e.frameOf(page)
	if !ok {
		return false
	}
	owner := e.frames[f].owner
	e.resByOwner[owner]--
	e.ownedBits[owner][f>>6] &^= 1 << (f & 63)
	e.occupied[f>>6] &^= 1 << (f & 63)
	e.preloaded[f>>6] &^= 1 << (f & 63)
	e.accessed[f>>6] &^= 1 << (f & 63)
	e.frames[f] = frame{page: mem.NoPage}
	e.free = append(e.free, f)
	e.pt[page] = 0
	return true
}

// SelectVictim returns the page the configured policy would evict, or
// mem.NoPage if the EPC is empty. It runs the policy's scan over every
// occupied frame.
//
// Under CLOCK (the driver's algorithm), frames with the access bit set get
// a second chance (the bit is cleared and the hand moves on); the first
// frame found with a clear access bit is the victim. With every bit set
// the hand wraps once, clearing as it goes, and evicts the frame it
// started from — guaranteeing termination. Empty frames are passed over
// without side effects, so walking the occupancy bitset from the hand
// visits the frames a frame-by-frame sweep would stop at.
func (e *EPC) SelectVictim() mem.PageID {
	if e.Resident() == 0 {
		return mem.NoPage
	}
	return e.victim(e.occupied)
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
	return e.victim(e.ownedBits[owner])
}

// victim runs the configured policy's scan over the frames whose bit is
// set in the membership bitset members, which must hold at least one
// frame.
func (e *EPC) victim(members []uint64) mem.PageID {
	switch e.policy {
	case PolicyFIFO:
		return e.victimByMin(members, func(fr *frame) uint64 { return fr.loadedAt })
	case PolicyLRU:
		return e.victimByMin(members, func(fr *frame) uint64 { return fr.touchedAt })
	case PolicyRandom:
		return e.victimRandom(members)
	}
	// CLOCK a word at a time. m is the word's members still ahead of the
	// hand; the first of them whose access bit is clear is the victim.
	// Every member passed over loses its bit (its second chance), so a
	// word passed whole is cleared in one store and the victim's word
	// only below the victim. The lap wraps back into the hand's word
	// whole, reaching the members below the hand in their cyclic turn.
	// Terminates: members holds >= 1 frame, and one lap clears every
	// access bit it meets.
	w := e.hand >> 6
	m := members[w] &^ (1<<(uint(e.hand)&63) - 1)
	for {
		if cand := m &^ e.accessed[w]; cand != 0 {
			b := bits.TrailingZeros64(cand)
			e.accessed[w] &^= m & (1<<uint(b) - 1)
			g := w<<6 | b
			e.hand = (g + 1) % len(e.frames)
			return e.frames[g].page
		}
		e.accessed[w] &^= m
		if w++; w == len(members) {
			w = 0
		}
		m = members[w]
	}
}

// victimByMin returns the member frame minimizing key, the first in
// frame order on ties. Keys are load/touch sequence numbers, which start
// at 1 and never reach ^uint64(0), so that bound seeds the minimum
// without a first-frame test on every step.
func (e *EPC) victimByMin(members []uint64, key func(*frame) uint64) mem.PageID {
	victim := mem.NoPage
	best := ^uint64(0)
	for w, m := range members {
		for ; m != 0; m &= m - 1 {
			fr := &e.frames[w<<6|bits.TrailingZeros64(m)]
			if k := key(fr); k < best {
				victim, best = fr.page, k
			}
		}
	}
	return victim
}

// victimRandom picks a uniformly random member frame (rejection sampling
// on a deterministic xorshift, so runs stay reproducible; terminates
// because the caller checked members holds at least one frame).
func (e *EPC) victimRandom(members []uint64) mem.PageID {
	for {
		e.rnd ^= e.rnd << 13
		e.rnd ^= e.rnd >> 7
		e.rnd ^= e.rnd << 17
		f := e.rnd % uint64(len(e.frames))
		if members[f>>6]&(1<<(f&63)) != 0 {
			return e.frames[f].page
		}
	}
}

// Preloaded reports whether page is resident and arrived via preloading.
func (e *EPC) Preloaded(page mem.PageID) bool {
	f, ok := e.frameOf(page)
	return ok && e.preloaded[f>>6]&(1<<(f&63)) != 0
}

// Accessed reports whether page is resident with its access bit set.
func (e *EPC) Accessed(page mem.PageID) bool {
	f, ok := e.frameOf(page)
	return ok && e.accessed[f>>6]&(1<<(f&63)) != 0
}

// ClearAccessedPreloads counts owner's resident preloaded frames whose
// access bit is set and clears their preload bits, so each correct
// preload is counted once. The kernel service thread piggybacks it on its
// CLOCK access-bit scan to maintain DFP's accuracy counter; each enclave
// counts only the frames stamped with its own owner, a word at a time.
func (e *EPC) ClearAccessedPreloads(owner int) int {
	if owner < 0 || owner >= len(e.ownedBits) {
		return 0
	}
	n := 0
	for w, m := range e.ownedBits[owner] {
		if hit := m & e.preloaded[w] & e.accessed[w]; hit != 0 {
			n += bits.OnesCount64(hit)
			e.preloaded[w] &^= hit
		}
	}
	return n
}

// CheckInvariants verifies internal consistency: the page table, frame
// table, free list, per-owner counters, per-owner membership bitsets and
// occupancy bitset must agree, and no access or preload bit may mark a
// free frame. Tests call it after random operation sequences. Whether
// each stamp names the right owner is the loader's contract, which the
// EPC cannot see; the engine's tests check it against the enclaves'
// page ranges.
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
		f, ok := e.frameOf(p)
		if !ok || f != FrameID(i) {
			return fmt.Errorf("epc: frame %d holds page %d, page table says (%d, %v)",
				i, p, f, ok)
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
	// Each owner's bitset holds exactly the frames stamped with that owner;
	// the occupancy bitset mirrors the frames' page.
	if len(e.ownedBits) != len(e.resByOwner) {
		return fmt.Errorf("epc: %d owner bitsets for %d owners", len(e.ownedBits), len(e.resByOwner))
	}
	for o, owned := range e.ownedBits {
		if err := e.checkBitset(fmt.Sprintf("owner %d", o), owned, func(fr *frame) bool {
			return fr.page != mem.NoPage && int(fr.owner) == o
		}); err != nil {
			return err
		}
	}
	if err := e.checkBitset("occupancy", e.occupied, func(fr *frame) bool { return fr.page != mem.NoPage }); err != nil {
		return err
	}
	// The access and preload bits have no frame-table mirror; they may
	// only mark occupied frames.
	for _, bit := range [...]struct {
		name string
		set  []uint64
	}{{"access", e.accessed}, {"preload", e.preloaded}} {
		for w, a := range bit.set {
			if stray := a &^ e.occupied[w]; stray != 0 {
				return fmt.Errorf("epc: %s bit set on free frame %d", bit.name, w<<6|bits.TrailingZeros64(stray))
			}
		}
	}
	// Entry counts matching plus every occupied frame resolving back to
	// itself rules out stale or duplicated page-table entries.
	mapped := 0
	for _, f := range e.pt {
		if f != 0 {
			mapped++
		}
	}
	if mapped != occupied {
		return fmt.Errorf("epc: page table holds %d entries, %d frames occupied",
			mapped, occupied)
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
	return nil
}

// checkBitset verifies that the frame bitset named name has exactly the
// frames for which want holds set, and no bit past the last frame.
func (e *EPC) checkBitset(name string, set []uint64, want func(*frame) bool) error {
	n := 0
	for i := range e.frames {
		got := set[i>>6]&(1<<(i&63)) != 0
		if w := want(&e.frames[i]); got != w {
			return fmt.Errorf("epc: %s bitset says frame %d = %v, frame says %v", name, i, got, w)
		}
		if got {
			n++
		}
	}
	total := 0
	for _, w := range set {
		total += bits.OnesCount64(w)
	}
	if total != n {
		return fmt.Errorf("epc: %s bitset holds %d bits past the last frame", name, total-n)
	}
	return nil
}
