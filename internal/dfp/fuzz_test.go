package dfp

import (
	"testing"

	"sgxpreload/internal/mem"
)

// Fuzz targets: arbitrary fault sequences must never panic any predictor
// and must preserve their structural invariants. `go test` runs the seed
// corpus; `go test -fuzz=FuzzPredictors` explores further.

func FuzzPredictors(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255, 254, 253, 252})
	f.Add([]byte{10, 11, 12, 200, 13, 14, 250, 251})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultConfig()
		ms, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStride(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mk, err := NewMarkov(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nn, err := NewNextN(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range data {
			// Spread bytes over a wide page space, with some adjacency.
			page := mem.PageID(b) * 37
			if i%3 == 0 && i > 0 {
				page = mem.PageID(data[i-1])*37 + 1
			}
			for _, out := range [][]mem.PageID{
				ms.OnFault(page), st.OnFault(page), mk.OnFault(page), nn.OnFault(page),
			} {
				if len(out) > cfg.LoadLength {
					t.Fatalf("prediction longer than LoadLength: %d", len(out))
				}
				for _, p := range out {
					if p == mem.NoPage {
						t.Fatal("predicted the NoPage sentinel")
					}
				}
			}
			if ms.Len() > cfg.StreamListLen {
				t.Fatalf("stream list grew to %d", ms.Len())
			}
		}
	})
}
