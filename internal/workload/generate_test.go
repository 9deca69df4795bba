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
// accesses. After each push it checks the builder's block: a full
// block is flushed only when the next push needs room, so the access
// just pushed is always the last of the current block, never alone in
// a block nobody flushed, and a trace of whole blocks leaves no empty
// block behind. A violation is recorded in *bad.
func synthetic(n int, bad *string) *Workload {
	return &Workload{Name: fmt.Sprintf("synthetic-%d", n), FootprintPages: 1, gen: func(_ Input, b *builder) {
		for i := 0; i < n; i++ {
			b.push(synthAccess(i))
			if (len(b.out) == 0 || b.out[len(b.out)-1] != synthAccess(i)) && *bad == "" {
				*bad = fmt.Sprintf("push %d is not the last access of the current block (%d accesses)", i, len(b.out))
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
	// blocks) and the exact-size copy: at most two traces' worth plus
	// the unfilled rest of the last block, with 64 KB of slack for the
	// block list and the generator's own state. Append growth allocates
	// ~4×. lbm's ref trace is exactly 3 blocks long, so its bound has
	// no block term: an empty spare block would exceed it.
	const access = uint64(unsafe.Sizeof(mem.Access{}))
	for _, c := range []struct {
		name      string
		lastBlock bool // allow one partly filled last block
	}{{"roms", true}, {"lbm", false}} {
		w, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := w.Generate(Ref)
		runtime.ReadMemStats(&after)
		n := uint64(len(tr))
		if !c.lastBlock && n%blockLen != 0 {
			t.Fatalf("%s/ref: %d accesses is not a whole number of %d-access blocks", c.name, n, blockLen)
		}
		limit := 2*n*access + 64<<10
		if c.lastBlock {
			limit += blockLen * access
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s/ref: Generate of %d accesses allocated %d B, want <= %d", c.name, n, got, limit)
		}
	}
}
