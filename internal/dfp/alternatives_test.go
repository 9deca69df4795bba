package dfp

import (
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

func TestStrideUnitStream(t *testing.T) {
	p, err := NewStride(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.OnFault(100)
	got := p.OnFault(101)
	if len(got) != 4 || got[0] != 102 || got[3] != 105 {
		t.Fatalf("unit-stride prediction = %v, want [102..105]", got)
	}
}

func TestStrideNonUnit(t *testing.T) {
	p, err := NewStride(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.OnFault(100)
	got := p.OnFault(107) // stride 7
	if len(got) != 4 || got[0] != 114 || got[3] != 135 {
		t.Fatalf("stride-7 prediction = %v, want [114 121 128 135]", got)
	}
	// Continue the stream.
	got = p.OnFault(114)
	if len(got) == 0 || got[0] != 121 {
		t.Fatalf("stride continuation = %v, want starting at 121", got)
	}
}

func TestStrideBackward(t *testing.T) {
	p, err := NewStride(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.OnFault(1000)
	got := p.OnFault(998) // stride -2
	if len(got) != 4 || got[0] != 996 || got[3] != 990 {
		t.Fatalf("descending prediction = %v, want [996 994 992 990]", got)
	}
}

func TestStrideHugeJumpIsNotAStride(t *testing.T) {
	p, err := NewStride(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.OnFault(100)
	if got := p.OnFault(100000); got != nil {
		t.Fatalf("random jump produced prediction %v", got)
	}
}

func TestStrideMultistreamParityOnUnitStreams(t *testing.T) {
	// On pure unit streams the paper's recognizer and the stride
	// generalization must make the same predictions.
	ms, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStride(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := mem.PageID(0); i < 40; i++ {
		a := ms.OnFault(500 + i)
		b := st.OnFault(500 + i)
		if len(a) != len(b) {
			t.Fatalf("fault %d: multistream %v vs stride %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("fault %d: multistream %v vs stride %v", i, a, b)
			}
		}
	}
}

func TestMarkovLearnsChains(t *testing.T) {
	p, err := NewMarkov(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	chain := []mem.PageID{10, 507, 33, 902, 10} // cyclic pointer chain
	// First walk: learning, no predictions for fresh pages.
	for _, pg := range chain {
		p.OnFault(pg)
	}
	// Second walk: every fault predicts the remembered successor.
	for i := 1; i < len(chain); i++ {
		got := p.OnFault(chain[i])
		want := chain[(i+1)%len(chain)]
		if i+1 < len(chain) {
			if len(got) == 0 || got[0] != want {
				t.Fatalf("fault %d (%d): predicted %v, want head %d", i, chain[i], got, want)
			}
		}
	}
}

func TestMarkovCapacityBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StreamListLen = 1 // capacity 64 sources
	p, err := NewMarkov(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		p.OnFault(mem.PageID(r.Uint64n(1 << 20)))
	}
	if len(p.successors) > 64+1 {
		t.Fatalf("transition table grew to %d entries, cap 64", len(p.successors))
	}
}

func TestNextNAlwaysPredicts(t *testing.T) {
	p, err := NewNextN(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := p.OnFault(42)
	if len(got) != 4 || got[0] != 43 {
		t.Fatalf("NextN prediction = %v, want [43..46]", got)
	}
}

func TestPredictorNames(t *testing.T) {
	ms, _ := New(DefaultConfig())
	st, _ := NewStride(DefaultConfig())
	mk, _ := NewMarkov(DefaultConfig())
	nn, _ := NewNextN(DefaultConfig())
	for got, want := range map[string]string{
		ms.Name(): "multistream",
		st.Name(): "stride",
		mk.Name(): "markov",
		nn.Name(): "nextn",
	} {
		if got != want {
			t.Errorf("predictor name %q, want %q", got, want)
		}
	}
}
