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

func mustPredictor(t *testing.T, kind Kind, cfg dfp.Config) *Predictor {
	t.Helper()
	p, err := NewPredictor(kind, cfg)
	if err != nil {
		t.Fatalf("NewPredictor(%s, %+v): %v", kind, cfg, err)
	}
	return p
}

func TestStopFormula(t *testing.T) {
	cfg := dfp.DefaultConfig()
	cfg.Stop = true
	cfg.StopSlack = 10
	p := mustPredictor(t, KindMultiStream, cfg)

	p.NotePreloaded(18)
	p.NoteAccessed(0)
	if p.EvaluateStop() {
		t.Fatal("stopped at 0+10 < 18/2=9 — formula misapplied (10 >= 9)")
	}
	p.NotePreloaded(4) // total 22, half = 11 > 10
	if !p.EvaluateStop() {
		t.Fatal("not stopped at 0+10 < 11")
	}
	if !p.Stopped() {
		t.Fatal("Stopped() = false after EvaluateStop fired")
	}
	if got := p.OnFault(1); got != nil {
		t.Fatalf("stopped predictor still predicts: %v", got)
	}
	// Stop must latch.
	p.NoteAccessed(1000)
	if !p.EvaluateStop() {
		t.Fatal("stop did not latch")
	}
}

func TestStopDisabledNeverFires(t *testing.T) {
	p := mustPredictor(t, KindMultiStream, dfp.DefaultConfig()) // Stop false
	p.NotePreloaded(1 << 20)
	if p.EvaluateStop() {
		t.Fatal("EvaluateStop fired with Stop disabled")
	}
}

func TestAccuracyCountersAccumulate(t *testing.T) {
	p := mustPredictor(t, KindMultiStream, dfp.DefaultConfig())
	p.NotePreloaded(5)
	p.NotePreloaded(-3) // ignored
	p.NoteAccessed(2)
	p.NoteAccessed(-1) // ignored
	if p.PreloadCounter() != 5 {
		t.Fatalf("PreloadCounter() = %d, want 5", p.PreloadCounter())
	}
	if p.AccPreloadCounter() != 2 {
		t.Fatalf("AccPreloadCounter() = %d, want 2", p.AccPreloadCounter())
	}
}

// Every strategy, the paper's multistream included, sits behind the
// same valve.
func TestAlternativesShareStopMechanism(t *testing.T) {
	cfg := dfp.DefaultConfig()
	cfg.Stop = true
	cfg.StopSlack = 1
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			p := mustPredictor(t, kind, cfg)
			p.NotePreloaded(100)
			if !p.EvaluateStop() {
				t.Fatal("valve did not fire at 0 accessed / 100 preloaded")
			}
			if !p.Stopped() {
				t.Fatal("Stopped() = false after valve fired")
			}
			p.OnFault(1)
			p.OnFault(2)
			if got := p.OnFault(3); got != nil {
				t.Fatalf("stopped predictor still predicts: %v", got)
			}
		})
	}
}

// FuzzPredictorValve drives every strategy through the valve on an
// arbitrary fault sequence: once stopped, no predictor predicts. `go
// test` runs the seed corpus; `go test -fuzz=FuzzPredictorValve` explores
// further.
func FuzzPredictorValve(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255, 254, 253, 252})
	f.Add([]byte{10, 11, 12, 200, 13, 14, 250, 251})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := dfp.DefaultConfig()
		cfg.Stop = true
		cfg.StopSlack = 2
		for _, kind := range Kinds() {
			p := mustPredictor(t, kind, cfg)
			for i, b := range data {
				// Spread bytes over a wide page space, with some adjacency.
				page := mem.PageID(b) * 37
				if i%3 == 0 && i > 0 {
					page = mem.PageID(data[i-1])*37 + 1
				}
				p.OnFault(page)
				p.NotePreloaded(1)
				if i%5 == 0 {
					p.EvaluateStop()
				}
				if p.Stopped() && p.OnFault(page) != nil {
					t.Fatalf("stopped %s predictor predicted", kind)
				}
			}
		}
	})
}
