package epc

import (
	"fmt"
	"testing"

	"sgxpreload/internal/mem"
)

// BenchmarkEPCLookup measures the page-table operations on the fault hot
// path — Present, Touch, and the Evict+Load pair on a miss — over a full
// EPC under a pseudo-random page stream. Before the array-backed page
// table these were map lookups; they are now direct array indexing.
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
		if err := e.Load(p, false); err != nil {
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
		if err := e.Load(p, i%2 == 0); err != nil {
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
		if err := e.Load(p, false); err != nil {
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
				for o := 1; o <= owners; o++ {
					if err := e.AddOwner(uint64(o * span)); err != nil {
						b.Fatal(err)
					}
				}
				// Round-robin fill: frame f goes to owner f%16.
				for i := 0; i < capacity; i++ {
					o, k := i%owners, i/owners
					if err := e.Load(mem.PageID(o*span+k), false); err != nil {
						b.Fatal(err)
					}
				}
				next := capacity / owners // owner 0's first non-resident page
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v := e.SelectVictimOwned(0)
					e.Evict(v)
					if err := e.Load(mem.PageID(next), false); err != nil {
						b.Fatal(err)
					}
					next = int(v) // the evicted page is the next one to load
				}
			})
		}
	}
}
