package dfp

import (
	"testing"

	"sgxpreload/internal/mem"
)

// BenchmarkOnFault measures one Algorithm 1 step on the paper's 30-entry
// stream list. In the random cell nearly every fault misses, so each one
// scans the whole list and replaces its LRU entry; the window prefilter
// rejects each entry with one compare. In the sequential cell eight
// interleaved forward streams fault one page past their predicted end,
// so nearly every fault hits an entry within the first eight.
func BenchmarkOnFault(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		p, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		rnd := uint64(0x2545f4914f6cdd1d)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			p.OnFault(mem.PageID(rnd % (1 << 20)))
		}
	})
	b.Run("sequential", func(b *testing.B) {
		cfg := DefaultConfig()
		p, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		const streams = 8
		var next [streams]mem.PageID
		for s := range next {
			next[s] = mem.PageID(s) << 32
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := i % streams
			out := p.OnFault(next[s])
			next[s] += mem.PageID(len(out)) + 1
		}
	})
}
