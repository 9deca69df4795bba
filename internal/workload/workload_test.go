package workload

import (
	"testing"

	"sgxpreload/internal/mem"
)

func TestRegistryComplete(t *testing.T) {
	// The paper's full evaluation set: Table 1 plus mcf.2006, the vision
	// apps, and mixed-blood.
	want := []string{
		"cactuBSSN", "imagick", "leela", "nab", "exchange2",
		"roms", "mcf", "deepsjeng", "omnetpp", "xz",
		"bwaves", "lbm", "wrf", "microbenchmark",
		"mcf.2006", "SIFT", "MSER", "mixed-blood",
	}
	for _, name := range want {
		if _, err := ByName(name); err != nil {
			t.Errorf("missing benchmark %q: %v", name, err)
		}
	}
	if len(Names()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(Names()), len(want), Names())
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark resolved")
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("All() not sorted: %q >= %q", all[i-1].Name, all[i].Name)
		}
	}
}

func TestByCategoryPartition(t *testing.T) {
	total := 0
	for _, c := range []Category{SmallWS, LargeIrregular, LargeRegular} {
		ws := ByCategory(c)
		total += len(ws)
		for _, w := range ws {
			if w.Category != c {
				t.Errorf("%s in wrong category bucket", w.Name)
			}
		}
	}
	if total != len(All()) {
		t.Errorf("categories partition %d of %d workloads", total, len(All()))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, w := range All() {
		a := w.Generate(Ref)
		b := w.Generate(Ref)
		if len(a) != len(b) {
			t.Fatalf("%s: non-deterministic length %d vs %d", w.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: access %d differs across generations", w.Name, i)
			}
		}
	}
}

func TestTrainAndRefDiffer(t *testing.T) {
	for _, w := range All() {
		tr := w.Generate(Train)
		ref := w.Generate(Ref)
		if len(tr) == 0 || len(ref) == 0 {
			t.Fatalf("%s: empty trace", w.Name)
		}
		if len(tr) >= len(ref) {
			t.Errorf("%s: train (%d accesses) not smaller than ref (%d)", w.Name, len(tr), len(ref))
		}
	}
}

func TestAccessesWithinELRange(t *testing.T) {
	for _, w := range All() {
		for _, in := range []Input{Train, Ref} {
			limit := mem.PageID(w.ELRangePages())
			for i, a := range w.Generate(in) {
				if a.Page >= limit {
					t.Fatalf("%s/%s access %d touches page %d beyond ELRANGE %d",
						w.Name, in, i, a.Page, limit)
				}
			}
		}
	}
}

func TestFootprintDeclarationsHonest(t *testing.T) {
	// The distinct pages touched by ref must be within the declared
	// footprint, and large-WS benchmarks must exceed the standard EPC.
	const epc = 2048
	for _, w := range All() {
		distinct := map[mem.PageID]struct{}{}
		for _, a := range w.Generate(Ref) {
			distinct[a.Page] = struct{}{}
		}
		if uint64(len(distinct)) > w.FootprintPages {
			t.Errorf("%s: touches %d distinct pages, declares %d", w.Name, len(distinct), w.FootprintPages)
		}
		switch w.Category {
		case SmallWS:
			if len(distinct) > epc {
				t.Errorf("%s: small-WS benchmark touches %d pages > EPC %d", w.Name, len(distinct), epc)
			}
		default:
			if len(distinct) <= epc {
				t.Errorf("%s: large-WS benchmark touches only %d pages <= EPC %d", w.Name, len(distinct), epc)
			}
		}
	}
}

func TestInstrumentableFlags(t *testing.T) {
	for _, w := range All() {
		if w.Language == LangFortran && w.Instrumentable {
			t.Errorf("%s: Fortran benchmark marked instrumentable", w.Name)
		}
	}
	om, err := ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	if om.Instrumentable {
		t.Error("omnetpp must be non-instrumentable (paper's tool limitation)")
	}
}

func TestInputAndCategoryStrings(t *testing.T) {
	if Train.String() != "train" || Ref.String() != "ref" {
		t.Error("Input strings wrong")
	}
	if LangC.String() != "C/C++" || LangFortran.String() != "Fortran" {
		t.Error("Language strings wrong")
	}
	if SmallWS.String() == "" || LargeIrregular.String() == "" || LargeRegular.String() == "" {
		t.Error("Category strings empty")
	}
}

func TestSeedsDifferByNameAndInput(t *testing.T) {
	if seed("lbm", Train) == seed("lbm", Ref) {
		t.Error("same seed across inputs")
	}
	if seed("lbm", Ref) == seed("mcf", Ref) {
		t.Error("same seed across workloads")
	}
}

func TestPhaseMultAveragesToOne(t *testing.T) {
	for _, tc := range []struct {
		period, burst int
		high          float64
	}{
		{16, 3, 4}, {32, 3, 10}, {20, 3, 6}, {16, 2, 6},
	} {
		var sum float64
		n := tc.period * 100
		for it := 0; it < n; it++ {
			sum += phaseMult(it, tc.period, tc.burst, tc.high)
		}
		avg := sum / float64(n)
		if avg < 0.95 || avg > 1.05 {
			t.Errorf("phaseMult(%d,%d,%v) averages %v, want ~1", tc.period, tc.burst, tc.high, avg)
		}
	}
}
