package core

import (
	"testing"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/mem"
)

func TestNewPredictorAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			p, err := NewPredictor(kind, dfp.DefaultConfig())
			if err != nil {
				t.Fatalf("NewPredictor(%s): %v", kind, err)
			}
			if p.Name() != string(kind) {
				t.Errorf("Name() = %q, want %q", p.Name(), kind)
			}
			if p.Stopped() {
				t.Error("fresh predictor already stopped")
			}
			// A unit stream must eventually produce predictions from every
			// kind except markov (which needs repetition).
			var predicted bool
			for i := uint64(100); i < 140; i++ {
				if len(p.OnFault(mem.PageID(i))) > 0 {
					predicted = true
				}
			}
			if !predicted && kind != KindMarkov {
				t.Errorf("%s never predicted on a unit stream", kind)
			}
		})
	}
}

func TestNewPredictorUnknownKind(t *testing.T) {
	if _, err := NewPredictor("nope", dfp.DefaultConfig()); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestNewPredictorInvalidConfig(t *testing.T) {
	for _, kind := range Kinds() {
		if _, err := NewPredictor(kind, dfp.Config{}); err == nil {
			t.Errorf("%s accepted an invalid config", kind)
		}
	}
}

func TestNewPredictorFreshState(t *testing.T) {
	a, err := NewPredictor(KindMultiStream, dfp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPredictor(KindMultiStream, dfp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a.NotePreloaded(100)
	if b.PreloadCounter() != 0 {
		t.Fatal("NewPredictor shared state between predictors")
	}
}

func TestKindsSorted(t *testing.T) {
	ks := Kinds()
	if len(ks) != 4 {
		t.Fatalf("Kinds() = %v, want 4 strategies", ks)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("Kinds() not sorted: %v", ks)
		}
	}
}
