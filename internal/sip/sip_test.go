package sip

import (
	"testing"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

func newClassifier(t *testing.T, epcPages int) *Classifier {
	t.Helper()
	c, err := NewClassifier(epcPages, 1<<16, dfp.DefaultConfig())
	if err != nil {
		t.Fatalf("NewClassifier: %v", err)
	}
	return c
}

func TestNewClassifierValidation(t *testing.T) {
	if _, err := NewClassifier(0, 100, dfp.DefaultConfig()); err == nil {
		t.Fatal("zero EPC accepted")
	}
	if _, err := NewClassifier(10, 100, dfp.Config{}); err == nil {
		t.Fatal("invalid DFP config accepted")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{Class1: "Class1", Class2: "Class2", Class3: "Class3"} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestClass1ResidentPage(t *testing.T) {
	c := newClassifier(t, 16)
	if got := c.Record(1, 5); got != Class3 {
		t.Fatalf("first touch of page 5 = %v, want Class3 (cold, no stream)", got)
	}
	if got := c.Record(1, 5); got != Class1 {
		t.Fatalf("second touch of page 5 = %v, want Class1 (resident)", got)
	}
}

func TestClass2StreamFollower(t *testing.T) {
	c := newClassifier(t, 64)
	c.Record(1, 100) // Class3, starts a stream entry
	if got := c.Record(1, 101); got != Class2 {
		t.Fatalf("sequential follower = %v, want Class2", got)
	}
	// The classifier mirrors DFP's effect: pages 102..105 are now modeled
	// resident, so touching them is Class1.
	if got := c.Record(1, 103); got != Class1 {
		t.Fatalf("preload-covered page = %v, want Class1", got)
	}
}

func TestClass3Irregular(t *testing.T) {
	c := newClassifier(t, 64)
	c.Record(1, 100)
	if got := c.Record(1, 5000); got != Class3 {
		t.Fatalf("random jump = %v, want Class3", got)
	}
}

func TestProfileTallies(t *testing.T) {
	c := newClassifier(t, 64)
	c.Record(7, 100)  // Class3
	c.Record(7, 101)  // Class2
	c.Record(7, 101)  // Class1
	c.Record(9, 5000) // Class3 at another site
	p := c.Profile()
	sp := p.Site(7)
	if sp.Class1 != 1 || sp.Class2 != 1 || sp.Class3 != 1 {
		t.Fatalf("site 7 profile = %+v, want 1/1/1", sp)
	}
	if got := sp.IrregularRatio(); got < 0.33 || got > 0.34 {
		t.Fatalf("irregular ratio = %v, want 1/3", got)
	}
	if p.Accesses != 4 || p.Faults != 3 {
		t.Fatalf("profile totals = %d accesses, %d faults; want 4, 3", p.Accesses, p.Faults)
	}
	if got := p.Site(99); got.Total() != 0 {
		t.Fatalf("unknown site profile = %+v, want zero", got)
	}
}

func TestClassifierEvictsAtCapacity(t *testing.T) {
	c := newClassifier(t, 4)
	// Fill far beyond capacity with random pages; residency model must
	// never exceed 4 frames, so re-touching an old page is a miss again.
	for i := 0; i < 100; i++ {
		c.Record(1, mem.PageID(1000+i*10))
	}
	if got := c.Record(1, 1000); got == Class1 {
		t.Fatal("page evicted long ago classified Class1")
	}
}

func TestSelectThreshold(t *testing.T) {
	p := &Profile{Sites: map[mem.SiteID]*SiteProfile{
		1: {Class1: 95, Class3: 5},  // exactly 5%
		2: {Class1: 96, Class3: 4},  // below
		3: {Class1: 50, Class3: 50}, // well above
		4: {Class2: 100},            // streams only: DFP territory
	}}
	sel := Select(p, 0.05, 0)
	if !sel.Instrumented(1) || !sel.Instrumented(3) {
		t.Error("sites at/above threshold not selected")
	}
	if sel.Instrumented(2) || sel.Instrumented(4) {
		t.Error("sites below threshold selected")
	}
	if sel.Points() != 2 {
		t.Errorf("Points() = %d, want 2", sel.Points())
	}
	sites := sel.Sites()
	if len(sites) != 2 || sites[0] != 1 || sites[1] != 3 {
		t.Errorf("Sites() = %v, want [1 3]", sites)
	}
}

func TestSelectMinAccesses(t *testing.T) {
	p := &Profile{Sites: map[mem.SiteID]*SiteProfile{
		1: {Class3: 5},              // tiny sample
		2: {Class1: 50, Class3: 50}, // large sample
	}}
	sel := Select(p, 0.05, 32)
	if sel.Instrumented(1) {
		t.Error("under-sampled site selected")
	}
	if !sel.Instrumented(2) {
		t.Error("well-sampled site not selected")
	}
}

func TestSelectSkipsNoSite(t *testing.T) {
	p := &Profile{Sites: map[mem.SiteID]*SiteProfile{
		mem.NoSite: {Class3: 1000},
	}}
	if Select(p, 0.05, 0).Points() != 0 {
		t.Error("NoSite (unattributable accesses) selected for instrumentation")
	}
}

func TestNilSelection(t *testing.T) {
	var sel *Selection
	if sel.Instrumented(1) {
		t.Error("nil selection instruments sites")
	}
	if sel.Points() != 0 || sel.Sites() != nil {
		t.Error("nil selection not empty")
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Higher thresholds must select subsets.
	r := rng.New(7)
	p := &Profile{Sites: map[mem.SiteID]*SiteProfile{}}
	for i := mem.SiteID(1); i <= 100; i++ {
		p.Sites[i] = &SiteProfile{
			Class1: uint64(r.Intn(1000)),
			Class2: uint64(r.Intn(100)),
			Class3: uint64(r.Intn(200)),
		}
	}
	prev := Select(p, 0.01, 0)
	for _, th := range []float64{0.05, 0.10, 0.30, 0.60, 0.95} {
		cur := Select(p, th, 0)
		for _, s := range cur.Sites() {
			if !prev.Instrumented(s) {
				t.Fatalf("threshold %v selected site %d that %v did not", th, s, prev.Threshold)
			}
		}
		prev = cur
	}
}

func TestSiteProfileZeroTotal(t *testing.T) {
	var sp SiteProfile
	if sp.IrregularRatio() != 0 {
		t.Error("zero-sample site has nonzero irregular ratio")
	}
}

// closeCounter counts Close calls on the stream it wraps.
type closeCounter struct {
	mem.Stream
	closes int
}

func (c *closeCounter) Close() { c.closes++ }

func TestProfileStreamMatchesRecord(t *testing.T) {
	r := rng.New(11)
	tr := make([]mem.Access, 5000)
	for i := range tr {
		tr[i] = mem.Access{Site: mem.SiteID(1 + r.Intn(8)), Page: mem.PageID(r.Intn(400))}
	}
	c := newClassifier(t, 64)
	for _, a := range tr {
		c.Record(a.Site, a.Page)
	}
	src := &closeCounter{Stream: mem.SliceStream(tr)}
	got, err := ProfileStream(src, 64, 1<<16, dfp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := c.Profile()
	if got.Accesses != want.Accesses || got.Faults != want.Faults || len(got.Sites) != len(want.Sites) {
		t.Fatalf("profile %d/%d/%d, want %d/%d/%d", got.Accesses, got.Faults, len(got.Sites),
			want.Accesses, want.Faults, len(want.Sites))
	}
	for site, sp := range want.Sites {
		if got.Site(site) != *sp {
			t.Errorf("site %d: %+v, want %+v", site, got.Site(site), *sp)
		}
	}
	if src.closes != 1 {
		t.Errorf("stream closed %d times, want 1", src.closes)
	}
}

func TestProfileStreamRejectsOutOfRange(t *testing.T) {
	tr := []mem.Access{{Site: 1, Page: 3}, {Site: 1, Page: 4}, {Site: 2, Page: 10}}
	src := &closeCounter{Stream: mem.SliceStream(tr)}
	_, err := ProfileStream(src, 4, 10, dfp.DefaultConfig())
	if err == nil || err.Error() != "sip: access 2 touches page 10 outside its 10 pages" {
		t.Errorf("err = %v, want the out-of-range access named", err)
	}
	if src.closes != 1 {
		t.Errorf("stream closed %d times on error, want 1", src.closes)
	}
	if _, err := ProfileStream(mem.SliceStream(tr), 0, 10, dfp.DefaultConfig()); err == nil {
		t.Error("zero EPC accepted")
	}
}

// TestClassifierSweepToRangeEnd: a stream running into the last ELRANGE
// page predicts successors past it; like the kernel, the classifier must
// skip them rather than fail to install them.
func TestClassifierSweepToRangeEnd(t *testing.T) {
	const pages = 100
	cfg := dfp.DefaultConfig()
	cfg.LoadLength = 32
	tr := make([]mem.Access, pages)
	for i := range tr {
		tr[i] = mem.Access{Site: 1, Page: mem.PageID(i)}
	}
	p, err := ProfileStream(mem.SliceStream(tr), 16, pages, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Accesses != pages || p.Site(1).Class2 == 0 {
		t.Errorf("profile %+v of a sequential sweep: want %d accesses, some Class 2", p.Site(1), pages)
	}
}
