package rng

import (
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestChanceExtremes(t *testing.T) {
	r := New(3)
	for i := 0; i < 100; i++ {
		if r.Chance(0) {
			t.Fatal("Chance(0) fired")
		}
		if !r.Chance(1) {
			t.Fatal("Chance(1) did not fire")
		}
	}
}

func TestChanceRoughlyCalibrated(t *testing.T) {
	r := New(5)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Chance(0.25) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.24 || got > 0.26 {
		t.Fatalf("Chance(0.25) fired at rate %v", got)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(1)
	child := parent.Fork()
	if parent.Uint64() == child.Uint64() {
		t.Fatal("fork produced the parent's stream")
	}
	// Forking is deterministic.
	p2 := New(1)
	c2 := p2.Fork()
	c1again := New(1).Fork()
	if c2.Uint64() != c1again.Uint64() {
		t.Fatal("fork not deterministic")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	_ = s.Uint64() // must not panic
}

func TestUniformity(t *testing.T) {
	// Chi-square-ish sanity check over 16 buckets.
	r := New(123)
	var buckets [16]int
	const n = 160000
	for i := 0; i < n; i++ {
		buckets[r.Uint64()%16]++
	}
	for i, c := range buckets {
		if c < n/16-n/160 || c > n/16+n/160 {
			t.Fatalf("bucket %d has %d of %d (expected ~%d)", i, c, n, n/16)
		}
	}
}
