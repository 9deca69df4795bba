package epc

import (
	"fmt"
	"testing"

	"sgxpreload/internal/mem"
)

// BenchmarkEPCLookup measures the page-table operations on the fault hot
// path — Present, Touch, and the Evict+Load pair on a miss — over a full
// EPC under a pseudo-random page stream. The page table is one slice
// indexed by page, so each lookup is an inlined array index.
func BenchmarkEPCLookup(b *testing.B) {
	const (
		capacity = 4096
		pages    = 1 << 16
	)
	e, err := New(capacity, pages)
	if err != nil {
		b.Fatal(err)
	}
	for p := mem.PageID(0); p < capacity; p++ {
		if err := e.Load(p, 0, false); err != nil {
			b.Fatal(err)
		}
	}
	rnd := uint64(0x2545f4914f6cdd1d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		p := mem.PageID(rnd % pages)
		if e.Present(p) {
			e.Touch(p)
			continue
		}
		if e.Full() {
			if v := e.SelectVictim(); v != mem.NoPage {
				e.Evict(v)
			}
		}
		if err := e.Load(p, 0, i%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEPCPresent isolates the residency probe, the single most
// frequent EPC operation (every access and every predict filter hits it).
func BenchmarkEPCPresent(b *testing.B) {
	const (
		capacity = 4096
		pages    = 1 << 16
	)
	e, err := New(capacity, pages)
	if err != nil {
		b.Fatal(err)
	}
	for p := mem.PageID(0); p < capacity; p++ {
		if err := e.Load(p, 0, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One resident page and one absent page per iteration.
		if !e.Present(mem.PageID(i % capacity)) {
			b.Fatal("resident page reported absent")
		}
		if e.Present(mem.PageID(capacity + i%capacity)) {
			b.Fatal("absent page reported resident")
		}
	}
}

// BenchmarkSelectVictim measures one global eviction — the victim scan
// over the occupancy bitset plus the Evict+Load that follows it — on a
// full EPC, under each policy.
func BenchmarkSelectVictim(b *testing.B) {
	const capacity = 4096
	for _, policy := range []Policy{PolicyClock, PolicyFIFO, PolicyLRU, PolicyRandom} {
		b.Run(policy.String(), func(b *testing.B) {
			e, err := NewWithPolicy(capacity, 2*capacity, policy)
			if err != nil {
				b.Fatal(err)
			}
			for p := mem.PageID(0); p < capacity; p++ {
				if err := e.Load(p, 0, false); err != nil {
					b.Fatal(err)
				}
			}
			next := mem.PageID(capacity) // the first non-resident page
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := e.SelectVictim()
				e.Evict(v)
				if err := e.Load(next, 0, false); err != nil {
					b.Fatal(err)
				}
				next = v // the evicted page is the next one to load
			}
		})
	}
}

// BenchmarkSelectVictimOwned measures one quota-driven self-eviction —
// the owned victim scan plus the Evict+Load that follows it — for an
// owner holding 1/16 of a full EPC shared by 16 owners whose frames are
// interleaved. The owned scans walk the owner's membership bitset, so
// the cost tracks the owner's frames (plus capacity/64 words), not the
// whole EPC.
func BenchmarkSelectVictimOwned(b *testing.B) {
	const owners = 16
	for _, capacity := range []int{4096, 65536} {
		for _, policy := range []Policy{PolicyClock, PolicyLRU} {
			b.Run(fmt.Sprintf("cap=%d/%v", capacity, policy), func(b *testing.B) {
				// Each owner's range is twice its share, so the measured
				// owner always has a non-resident page to load next.
				span := 2 * capacity / owners
				e, err := NewWithPolicy(capacity, uint64(owners*span), policy)
				if err != nil {
					b.Fatal(err)
				}
				for o := 1; o < owners; o++ {
					e.AddOwner()
				}
				// Round-robin fill: frame f goes to owner f%16.
				for i := 0; i < capacity; i++ {
					o, k := i%owners, i/owners
					if err := e.Load(mem.PageID(o*span+k), o, false); err != nil {
						b.Fatal(err)
					}
				}
				next := capacity / owners // owner 0's first non-resident page
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v := e.SelectVictimOwned(0)
					e.Evict(v)
					if err := e.Load(mem.PageID(next), 0, false); err != nil {
						b.Fatal(err)
					}
					next = int(v) // the evicted page is the next one to load
				}
			})
		}
	}
}

// BenchmarkOwnerAccessed measures the adaptive quota policy's working-set
// sample — one owner's accessed-frame count — on a full 4096-frame EPC
// whose frames are dealt round-robin to 1, 16 or 64 owners, half of them
// accessed. The count is a popcount over the owner's membership words
// ANDed with the access bitset, so it costs capacity/64 words whatever
// the owner holds.
func BenchmarkOwnerAccessed(b *testing.B) {
	const capacity = 4096
	for _, owners := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("owners=%d", owners), func(b *testing.B) {
			span := 2 * capacity / owners
			e, err := New(capacity, uint64(owners*span))
			if err != nil {
				b.Fatal(err)
			}
			for o := 1; o < owners; o++ {
				e.AddOwner()
			}
			// Round-robin fill: frame f goes to owner f%owners; every
			// other frame is a preload, whose access bit starts clear.
			for i := 0; i < capacity; i++ {
				o, k := i%owners, i/owners
				if err := e.Load(mem.PageID(o*span+k), o, i%2 == 1); err != nil {
					b.Fatal(err)
				}
			}
			want := e.OwnerAccessed(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e.OwnerAccessed(0) != want {
					b.Fatal("OwnerAccessed changed without a touch")
				}
			}
		})
	}
}
