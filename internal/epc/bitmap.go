package epc

import "math/bits"

// Bitmap is the enclave-page presence bitmap shared between the enclave
// and the untrusted OS: one bit per ELRANGE virtual page, set while the
// page is EPC-resident.
//
// In the paper this array lives in untrusted user memory so enclave code
// can read it without an exit; the OS writes it only on page load and
// eviction. Here both sides are in-process, but the type is kept separate
// from EPC so SIP's runtime can hold only the bitmap, matching the real
// trust boundary.
type Bitmap struct {
	words []uint64
	n     uint64
}

// NewBitmap returns a bitmap covering n pages, all clear.
func NewBitmap(n uint64) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of pages covered.
func (b *Bitmap) Len() uint64 { return b.n }

// Get reports whether bit i is set. Out-of-range indices read as clear,
// mirroring an access beyond the mapped ELRANGE.
func (b *Bitmap) Get(i uint64) bool {
	if i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<(i%64)) != 0
}

// Set sets bit i. Out-of-range indices are ignored.
func (b *Bitmap) Set(i uint64) {
	if i >= b.n {
		return
	}
	b.words[i/64] |= 1 << (i % 64)
}

// Clear clears bit i. Out-of-range indices are ignored.
func (b *Bitmap) Clear(i uint64) {
	if i >= b.n {
		return
	}
	b.words[i/64] &^= 1 << (i % 64)
}

// Grow extends the bitmap to cover n pages; existing bits keep their
// values and the new pages read as clear. Shrinking is a no-op: the
// bitmap only ever tracks a growing ELRANGE (dynamic enclave admission
// appends to the shared page space, it never reclaims). Growing in place
// keeps every outstanding *Bitmap handle — each enclave's SIP runtime
// holds one — valid across admissions.
func (b *Bitmap) Grow(n uint64) {
	if n <= b.n {
		return
	}
	b.words = append(b.words, make([]uint64, (n+63)/64-uint64(len(b.words)))...)
	b.n = n
}

// Count returns the number of set bits.
func (b *Bitmap) Count() uint64 {
	var c uint64
	for _, w := range b.words {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}
