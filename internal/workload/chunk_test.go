package workload

import (
	"fmt"
	"runtime"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/mem/memtest"
	"sgxpreload/internal/rng"
)

// TestChunkGenerators: for every generator and both inputs, Next and
// Chunk interleaved at random, with maxima that end inside a chunk, at
// its end and past it, yield exactly what Next alone yields from a fresh
// stream; so does a Limit over the stream, with its cap inside the
// trace.
func TestChunkGenerators(t *testing.T) {
	r := rng.New(1)
	for _, w := range All() {
		for _, in := range []Input{Train, Ref} {
			label := fmt.Sprintf("%s/%s", w.Name, in)
			want := mem.Collect(w.Stream(in))
			memtest.Equal(t, label, memtest.PullMixed(t, w.Stream(in), r, 3*chunkLen), want)
			limit := r.Uint64n(uint64(len(want)))
			got := memtest.PullMixed(t, mem.Limit(w.Stream(in), limit), r, 3*chunkLen)
			memtest.Equal(t, fmt.Sprintf("%s limit=%d", label, limit), got, want[:limit])
		}
	}
}

// TestChunkClose: closing a stream after a partly read chunk ends it for
// good and releases its coroutine.
func TestChunkClose(t *testing.T) {
	w, err := ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	want := w.Generate(Ref)
	for _, k := range []int{1, chunkLen / 2, chunkLen, 2*chunkLen + 1} {
		before := runtime.NumGoroutine()
		s := w.Stream(Ref)
		var got []mem.Access
		for len(got) < k {
			got = append(got, s.(mem.Chunker).Chunk(k-len(got))...)
		}
		memtest.Equal(t, fmt.Sprintf("k=%d", k), got, want[:k])
		s.(mem.Closer).Close()
		if c := s.(mem.Chunker).Chunk(chunkLen); len(c) != 0 {
			t.Fatalf("k=%d: closed stream yields a %d-access chunk", k, len(c))
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("k=%d: goroutines %d after Close, %d before the stream", k, after, before)
		}
	}
}
