package sim

import "math"

// The event-heap scheduler. The seed engine picked the next enclave by
// a linear argmin over clock + nextAccess.Compute — O(E) per step, fine
// at E <= 8, hostile at fleet sizes. eventHeap replaces it with a
// min-heap at O(log E) per step, ordered lexicographically by (key,
// enclave index) so the root is *exactly* the enclave the seed's strict
// first-min scan would have picked: among equal keys the lowest index
// wins, byte for byte (the golden differential tests are the proof
// obligation).
//
// The layout is struct-of-arrays: hKey and hEnc are parallel slices (a
// heap slot's key and enclave index live at the same offset). A sift
// therefore walks two flat uint64/int32 arrays — cache lines, not
// pointers — and the whole structure is allocated once in New, so heap
// maintenance contributes zero allocations per Step.
//
// The heap is 4-ary, not binary: the dominant operation is sifting the
// freshly-run root back down (its new key usually passes most of the
// fleet), and a wider node halves the depth while the extra sibling
// comparisons read *contiguous* hKey entries — one cache line serves
// the whole child scan. Measured on BenchmarkStep, 4-ary beats binary
// by a consistent few percent per Step at fleet sizes.
//
// The engine only ever touches the root: burst re-keys it in place
// (runnerUp, then updateMin) and popMin removes it once its stream is
// exhausted. Pushes insert new enclaves. No operation addresses an
// enclave below the root, so the heap keeps no enclave→slot index.

// eventHeap is the min-heap over runnable enclaves.
type eventHeap struct {
	hKey []uint64 // heap slot -> scheduling key (clock + next compute)
	hEnc []int32  // heap slot -> enclave index
}

// init sizes the heap's arrays for n enclaves with no entries.
func (h *eventHeap) init(n int) {
	h.hKey = make([]uint64, 0, n)
	h.hEnc = make([]int32, 0, n)
}

// len reports the number of runnable enclaves.
func (h *eventHeap) len() int { return len(h.hEnc) }

// min returns the enclave index with the smallest (key, index) pair.
// The heap must be non-empty.
func (h *eventHeap) min() int32 { return h.hEnc[0] }

// less orders heap slots a and b lexicographically by (key, enclave
// index): the strict first-min tie-break of the seed's linear argmin.
func (h *eventHeap) less(a, b int) bool {
	return h.hKey[a] < h.hKey[b] ||
		(h.hKey[a] == h.hKey[b] && h.hEnc[a] < h.hEnc[b])
}

// swap exchanges heap slots a and b.
func (h *eventHeap) swap(a, b int) {
	h.hKey[a], h.hKey[b] = h.hKey[b], h.hKey[a]
	h.hEnc[a], h.hEnc[b] = h.hEnc[b], h.hEnc[a]
}

// push inserts enclave i with the given key. Dynamic admission pushes
// enclaves past the count the heap was initialized with.
func (h *eventHeap) push(i int32, key uint64) {
	h.hKey = append(h.hKey, key)
	h.hEnc = append(h.hEnc, i)
	h.up(len(h.hEnc) - 1)
}

// runnerUp returns the slot, key and enclave of the heap's second entry
// in (key, enclave) order: the least of the root's up-to-four children,
// since every other entry sits below one of them. When the root is alone
// it returns slot 0 with (MaxUint64, MaxInt32), which no root loses to.
func (h *eventHeap) runnerUp() (int, uint64, int32) {
	n := len(h.hEnc)
	if n < 2 {
		return 0, math.MaxUint64, math.MaxInt32
	}
	up, key, enc := 1, h.hKey[1], h.hEnc[1]
	for c := 2; c < min(n, 5); c++ {
		if ck, ce := h.hKey[c], h.hEnc[c]; ck < key || (ck == key && ce < enc) {
			up, key, enc = c, ck, ce
		}
	}
	return up, key, enc
}

// updateMin rewrites the root's key and restores heap order, given the
// root's runner-up slot from runnerUp (0 when it has none). Only the
// root's key has changed since runnerUp, so the sift's first level — the
// scan for the least child — is already done: the root either stays, or
// the runner-up takes its place and the root sinks on from the runner-up's
// slot.
func (h *eventHeap) updateMin(key uint64, up int) {
	enc := h.hEnc[0]
	if up == 0 || key < h.hKey[up] || (key == h.hKey[up] && enc < h.hEnc[up]) {
		h.hKey[0] = key
		return
	}
	h.hKey[0], h.hEnc[0] = h.hKey[up], h.hEnc[up]
	h.hKey[up], h.hEnc[up] = key, enc
	h.down(up)
}

// popMin removes the root enclave from the heap.
func (h *eventHeap) popMin() {
	last := len(h.hEnc) - 1
	if last > 0 {
		h.hKey[0] = h.hKey[last]
		h.hEnc[0] = h.hEnc[last]
	}
	h.hKey = h.hKey[:last]
	h.hEnc = h.hEnc[:last]
	if last > 0 {
		h.down(0)
	}
}

// up sifts slot s toward the root.
func (h *eventHeap) up(s int) {
	for s > 0 {
		parent := (s - 1) / 4
		if !h.less(s, parent) {
			return
		}
		h.swap(s, parent)
		s = parent
	}
}

// down sifts slot s toward the leaves. The displaced entry travels as a
// hole: children shift up one level each and the entry lands once at
// the end, half the writes of a swap-per-level sift — this is the
// scheduler's single hottest loop (the freshly-run root re-keys ahead
// of most of the fleet every Step).
func (h *eventHeap) down(s int) {
	n := len(h.hEnc)
	key, enc := h.hKey[s], h.hEnc[s]
	for {
		first := 4*s + 1
		if first >= n {
			break
		}
		// Scan the up-to-four children (contiguous hKey entries) for
		// the (key, enclave)-lexicographic minimum.
		kid, kk, ke := first, h.hKey[first], h.hEnc[first]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if ck, ce := h.hKey[c], h.hEnc[c]; ck < kk || (ck == kk && ce < ke) {
				kid, kk, ke = c, ck, ce
			}
		}
		if kk > key || (kk == key && ke > enc) {
			break
		}
		h.hKey[s], h.hEnc[s] = kk, ke
		s = kid
	}
	h.hKey[s], h.hEnc[s] = key, enc
}
