package workload

import (
	"fmt"
	"runtime"
	"testing"

	"sgxpreload/internal/mem"
)

// drainEquals pulls s to its end and requires exactly want.
func drainEquals(t *testing.T, label string, s mem.Stream, want []mem.Access) {
	t.Helper()
	for i, exp := range want {
		got, ok := s.Next()
		if !ok {
			t.Fatalf("%s: stream ended at %d of %d", label, i, len(want))
		}
		if got != exp {
			t.Fatalf("%s: access %d is %+v from stream, %+v materialized", label, i, got, exp)
		}
	}
	if extra, ok := s.Next(); ok {
		t.Fatalf("%s: stream yields %+v past the %d-access trace", label, extra, len(want))
	}
}

func TestStreamMatchesGenerate(t *testing.T) {
	// The coroutine stream must yield exactly the accesses Generate
	// materializes, for every workload and both inputs.
	for _, w := range All() {
		for _, in := range []Input{Train, Ref} {
			want := w.Generate(in)
			s := w.Stream(in)
			for i, exp := range want {
				got, ok := s.Next()
				if !ok {
					t.Fatalf("%s/%s: stream ended at %d of %d", w.Name, in, i, len(want))
				}
				if got != exp {
					t.Fatalf("%s/%s: access %d is %+v from stream, %+v materialized",
						w.Name, in, i, got, exp)
				}
			}
			if extra, ok := s.Next(); ok {
				t.Fatalf("%s/%s: stream yields %+v past the %d-access trace",
					w.Name, in, extra, len(want))
			}
			if _, ok := s.Next(); ok { // exhausted streams stay exhausted
				t.Fatalf("%s/%s: stream revived after exhaustion", w.Name, in)
			}
		}
	}
}

func TestStreamEarlyClose(t *testing.T) {
	// Abandoning a stream mid-trace must unwind the generator coroutine
	// without panicking, and Close must be idempotent.
	w, err := ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stream(Ref)
	for i := 0; i < 10; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatalf("lbm stream ended after %d accesses", i)
		}
	}
	c, ok := s.(mem.Closer)
	if !ok {
		t.Fatal("workload stream does not implement mem.Closer")
	}
	c.Close()
	c.Close()
	if _, ok := s.Next(); ok {
		t.Fatal("closed stream still yields accesses")
	}
}

func TestStreamIndependentInstances(t *testing.T) {
	// Two streams of the same workload are independent cursors.
	w, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	// Pulled interleaved across several chunk boundaries, with b half a
	// chunk behind a, neither cursor may see the other's chunk.
	const lag = chunkLen / 2
	want := w.Generate(Ref)
	a, b := w.Stream(Ref), w.Stream(Ref)
	for i := 0; i < 3*chunkLen+lag; i++ {
		if av, ok := a.Next(); !ok || av != want[i] {
			t.Fatalf("stream a: access %d is %+v/%v, want %+v", i, av, ok, want[i])
		}
		if i < lag {
			continue
		}
		if bv, ok := b.Next(); !ok || bv != want[i-lag] {
			t.Fatalf("stream b: access %d is %+v/%v, want %+v", i-lag, bv, ok, want[i-lag])
		}
	}
	a.(mem.Closer).Close()
	b.(mem.Closer).Close()
}

func TestStreamChunkBoundaryClose(t *testing.T) {
	// Closing after any number of pulls around a chunk boundary must
	// end the stream for good and release its coroutine; the chunk it
	// returns to the pool must not be aliased by what runs next, so a
	// fresh stream of another workload still equals its Generate.
	lbm, err := ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	want := lbm.Generate(Ref)
	others := All()
	for i, k := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3 * chunkLen} {
		before := runtime.NumGoroutine()
		s := lbm.Stream(Ref)
		for j := 0; j < k; j++ {
			got, ok := s.Next()
			if !ok || got != want[j] {
				t.Fatalf("k=%d: access %d is %+v/%v, want %+v", k, j, got, ok, want[j])
			}
		}
		s.(mem.Closer).Close()
		for j := 0; j < 2; j++ {
			if a, ok := s.Next(); ok {
				t.Fatalf("k=%d: closed stream yields %+v", k, a)
			}
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("k=%d: goroutines %d after Close, %d before the stream", k, after, before)
		}
		w := others[i%len(others)]
		drainEquals(t, fmt.Sprintf("k=%d then %s/train", k, w.Name), w.Stream(Train), w.Generate(Train))
	}
}

func TestStreamAllocsO1(t *testing.T) {
	// In steady state, pulling from a generator's stream must not
	// allocate: the coroutine refills one pooled chunk in place.
	const warm, batch = 2 * chunkLen, 2000
	for _, w := range All() {
		s := w.Stream(Ref)
		pull := func() {
			if _, ok := s.Next(); !ok {
				t.Fatalf("%s: stream ended during the allocation guard", w.Name)
			}
		}
		for i := 0; i < warm; i++ {
			pull()
		}
		perBatch := testing.AllocsPerRun(5, func() {
			for i := 0; i < batch; i++ {
				pull()
			}
		})
		s.(mem.Closer).Close()
		if perAccess := perBatch / batch; perAccess > 0.01 {
			t.Errorf("%s: %.4f allocs per access in steady state, want ~0", w.Name, perAccess)
		}
	}
}

// benchWorkload is the generator the pull benchmarks drive: a small-
// working-set trace, the kind a long streamed hit run pulls.
const benchWorkload = "leela"

// BenchmarkStreamPull measures the per-access cost of pulling a
// generator's stream: one op is one Next, and an exhausted stream is
// replaced by a fresh one, as a repeated streamed run does.
func BenchmarkStreamPull(b *testing.B) { benchStreamPull(b, benchWorkload) }

// BenchmarkStreamPullIrregular is BenchmarkStreamPull over the
// generators whose accesses come mostly from an irregular site family.
func BenchmarkStreamPullIrregular(b *testing.B) {
	for _, name := range []string{"deepsjeng", "MSER", "omnetpp", "xz"} {
		b.Run(name, func(b *testing.B) { benchStreamPull(b, name) })
	}
}

// benchStreamPull pulls workload name's Ref stream access by access,
// restarting it when spent, so one op is one Next.
func benchStreamPull(b *testing.B, name string) {
	w, err := ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	s := w.Stream(Ref)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			s = w.Stream(Ref)
			s.Next()
		}
	}
	s.(mem.Closer).Close()
}

// BenchmarkGenerate is BenchmarkStreamPull's materialized reference: one
// op is one access read from a Generate slice, regenerated when spent.
func BenchmarkGenerate(b *testing.B) { benchGenerate(b, benchWorkload) }

// BenchmarkGenerateLarge is BenchmarkGenerate over a fault-heavy trace of
// 252k accesses (8 MB), the size class of the materialized solo runs.
func BenchmarkGenerateLarge(b *testing.B) { benchGenerate(b, "roms") }

// benchGenerate reads workload name's Ref trace access by access,
// regenerating it when spent, so one op is one access.
func benchGenerate(b *testing.B, name string) {
	w, err := ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var (
		tr  []mem.Access
		pos int
		sum mem.PageID
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pos == len(tr) {
			tr, pos = w.Generate(Ref), 0
		}
		sum += tr[pos].Page
		pos++
	}
	_ = sum
}
