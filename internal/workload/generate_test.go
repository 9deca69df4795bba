package workload

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"sgxpreload/internal/mem"
)

func TestGenerateExactCapacity(t *testing.T) {
	// Generate returns one exact-size slice: no spare capacity pins a
	// block's worth of memory behind a cached trace.
	for _, w := range All() {
		for _, in := range []Input{Train, Ref} {
			if tr := w.Generate(in); cap(tr) != len(tr) {
				t.Errorf("%s/%s: cap %d, len %d", w.Name, in, cap(tr), len(tr))
			}
		}
	}
}

// synthAccess is access i of the synthetic generator: every field
// varies with i, so a dropped, repeated or reordered access shows.
func synthAccess(i int) mem.Access {
	return mem.Access{
		Site:    mem.SiteID(i % 7),
		Page:    mem.PageID(i),
		Compute: uint64(3 * i),
		Write:   i%3 == 0,
	}
}

// synthetic returns an unregistered workload whose generator emits n
// accesses. After each push it checks the builder's block: a push that
// fills a block must flush it, so no block is ever left full, and
// Generate's blocks all hold blockLen accesses. A violation is recorded
// in *bad.
func synthetic(n int, bad *string) *Workload {
	return &Workload{Name: fmt.Sprintf("synthetic-%d", n), FootprintPages: 1, gen: func(_ Input, b *builder) {
		for i := 0; i < n; i++ {
			b.push(synthAccess(i))
			if len(b.out) == cap(b.out) && *bad == "" {
				*bad = fmt.Sprintf("block full (%d accesses) after push %d", len(b.out), i)
			}
		}
	}}
}

func TestGenerateBlockBoundaries(t *testing.T) {
	// Traces ending on, just before and just after a block boundary must
	// materialize (and stream) exactly as a plain append builds them.
	for _, n := range []int{0, 1, blockLen - 1, blockLen, blockLen + 1, 3 * blockLen} {
		var want []mem.Access
		for i := 0; i < n; i++ {
			want = append(want, synthAccess(i))
		}
		var bad string
		w := synthetic(n, &bad)
		got := w.Generate(Ref)
		if bad != "" {
			t.Errorf("n=%d: Generate: %s", n, bad)
		}
		if len(got) != n || cap(got) != n {
			t.Fatalf("n=%d: Generate gives len %d, cap %d", n, len(got), cap(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: access %d is %+v, want %+v", n, i, got[i], want[i])
			}
		}
		drainEquals(t, fmt.Sprintf("n=%d stream", n), w.Stream(Ref), want)
		if bad != "" {
			t.Errorf("n=%d: Stream: %s", n, bad)
		}
	}
}

func TestGenerateAllocBytes(t *testing.T) {
	// One Generate allocates the blocks (the trace rounded up to whole
	// blocks, at most one of them empty) and the exact-size copy: at most
	// two traces' worth plus one block, with 64 KB of slack for the block
	// list and the generator's own state. Append growth allocates ~4×.
	w, err := ByName("roms")
	if err != nil {
		t.Fatal(err)
	}
	const access = uint64(unsafe.Sizeof(mem.Access{}))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := w.Generate(Ref)
	runtime.ReadMemStats(&after)
	n := uint64(len(tr))
	limit := 2*n*access + blockLen*access + 64<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("roms/ref: Generate of %d accesses allocated %d B, want <= %d", n, got, limit)
	}
}
