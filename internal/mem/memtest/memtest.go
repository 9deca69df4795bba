// Package memtest checks mem.Stream implementations against the
// mem.Chunker contract. Its helpers are for tests only.
package memtest

import (
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

// PullMixed drains s, which must be a mem.Chunker, choosing at random
// before each pull between Next and Chunk with a random max in
// [1, maxChunk], and returns the accesses in the order they came. It
// fails t when a chunk is longer than asked, or when s yields an access
// after either call reported its end.
func PullMixed(t testing.TB, s mem.Stream, r *rng.Source, maxChunk int) []mem.Access {
	t.Helper()
	ck, ok := s.(mem.Chunker)
	if !ok {
		t.Fatalf("%T is not a mem.Chunker", s)
	}
	var out []mem.Access
	for {
		if r.Intn(2) == 0 {
			a, ok := s.Next()
			if !ok {
				break
			}
			out = append(out, a)
			continue
		}
		max := 1 + r.Intn(maxChunk)
		c := ck.Chunk(max)
		if len(c) > max {
			t.Fatalf("Chunk(%d) returned %d accesses after %d", max, len(c), len(out))
		}
		if len(c) == 0 {
			break
		}
		out = append(out, c...)
	}
	for i := 0; i < 2; i++ {
		if a, ok := s.Next(); ok {
			t.Fatalf("Next yields %+v after the end, at access %d", a, len(out))
		}
		if c := ck.Chunk(maxChunk); len(c) != 0 {
			t.Fatalf("Chunk yields %d accesses after the end, at access %d", len(c), len(out))
		}
	}
	return out
}

// Equal fails t, naming label and the first differing access, unless
// got and want are the same accesses.
func Equal(t testing.TB, label string, got, want []mem.Access) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: access %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d accesses, want %d", label, len(got), len(want))
	}
}
