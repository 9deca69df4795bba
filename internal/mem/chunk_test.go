package mem_test

import (
	"fmt"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/mem/memtest"
	"sgxpreload/internal/rng"
)

// randomTrace returns n accesses with distinct pages, so a repeated or
// skipped access cannot go unnoticed.
func randomTrace(r *rng.Source, n int) []mem.Access {
	tr := make([]mem.Access, n)
	for i := range tr {
		tr[i] = mem.Access{Site: mem.SiteID(r.Intn(8)), Page: mem.PageID(i), Compute: r.Uint64n(1000), Write: r.Intn(2) == 0}
	}
	return tr
}

// TestChunkSliceAndLimit: Next and Chunk interleaved at random over a
// slice stream, and over a Limit of one at caps below, at and past the
// trace's end, yield exactly what Next alone yields from a fresh stream.
func TestChunkSliceAndLimit(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{0, 1, 2, 7, 64, 65, 1000} {
		tr := randomTrace(r, n)
		for trial := 0; trial < 20; trial++ {
			label := fmt.Sprintf("n=%d trial %d", n, trial)
			memtest.Equal(t, label, memtest.PullMixed(t, mem.SliceStream(tr), r, 1+r.Intn(2*n+2)), tr)
			for _, limit := range []uint64{0, 1, uint64(n / 2), uint64(n), uint64(n) + 5} {
				want := mem.Collect(mem.Limit(mem.SliceStream(tr), limit))
				got := memtest.PullMixed(t, mem.Limit(mem.SliceStream(tr), limit), r, 1+r.Intn(2*n+2))
				memtest.Equal(t, fmt.Sprintf("%s limit=%d", label, limit), got, want)
			}
		}
	}
}

// TestChunkLimitStopsAtCap: a Limit drained through Chunks with a max
// far past its limit consumes a non-Closer source up to exactly the limit,
// so the source's next access is the one after it.
func TestChunkLimitStopsAtCap(t *testing.T) {
	tr := randomTrace(rng.New(2), 100)
	for _, limit := range []uint64{1, 10, 63, 99} {
		src := mem.SliceStream(tr)
		lim := mem.Limit(src, limit).(mem.Chunker)
		n := 0
		for c := lim.Chunk(1 << 20); len(c) > 0; c = lim.Chunk(1 << 20) {
			n += len(c)
		}
		if n != int(limit) {
			t.Fatalf("limit %d: the limited stream yielded %d accesses", limit, n)
		}
		if a, ok := src.Next(); !ok || a != tr[limit] {
			t.Fatalf("limit %d: the source's next access is %+v/%v, want access %d, %+v", limit, a, ok, limit, tr[limit])
		}
	}
}

// TestChunkLimitNextOnly: Limit over a stream without Chunk is not a
// Chunker either, so the engine pulls it one access at a time.
func TestChunkLimitNextOnly(t *testing.T) {
	src := mem.SliceStream(randomTrace(rng.New(3), 4))
	if _, ok := mem.Limit(mem.StreamFunc(src.Next), 2).(mem.Chunker); ok {
		t.Fatal("Limit over a Next-only stream is a Chunker")
	}
	if _, ok := mem.Limit(src, 2).(mem.Chunker); !ok {
		t.Fatal("Limit over a slice stream is not a Chunker")
	}
}

// TestChunkSliceReadOnly: appending to a chunk must not write into the
// trace it came from.
func TestChunkSliceReadOnly(t *testing.T) {
	tr := randomTrace(rng.New(4), 8)
	want := append([]mem.Access(nil), tr...)
	s := mem.SliceStream(tr).(mem.Chunker)
	c := s.Chunk(3)
	_ = append(c, mem.Access{Page: 999})
	memtest.Equal(t, "trace after an append to its first chunk", tr, want)
}
