package experiments

import (
	"testing"

	"sgxpreload/internal/sim"
)

// The experiment tests assert the paper's qualitative findings — who
// wins, by roughly what factor, where the optima fall — with tolerances
// wide enough to survive parameter-level recalibration but tight enough
// that a broken scheme or workload model fails loudly. EXPERIMENTS.md
// records the precise measured values next to the paper's.

// sharedRunner caches traces and profiles across tests in this package.
var sharedRunner = NewRunner(Default())

func TestMotivation(t *testing.T) {
	m, err := Motivation(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if m.EnclaveFaultCost < 60000 || m.EnclaveFaultCost > 64000 {
		t.Errorf("enclave fault cost = %d, want the paper's 60k-64k band", m.EnclaveFaultCost)
	}
	if m.RegularFaultCost != 2000 {
		t.Errorf("regular fault cost = %d, want 2000", m.RegularFaultCost)
	}
	// The paper observed ~46x on a raw 1GB scan; our scaled scan carries a
	// little more compute per page, so the band is wide — but the slowdown
	// must be an order of magnitude, not a few percent.
	if m.Slowdown < 5 {
		t.Errorf("enclave slowdown = %.1fx, want >= 5x", m.Slowdown)
	}
}

func TestFigure3Patterns(t *testing.T) {
	f, err := Figure3(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Figure3Row{}
	for _, b := range f.Benchmarks {
		byName[b.Name] = b
	}
	for _, seq := range []string{"bwaves", "lbm"} {
		b := byName[seq]
		if b.Pattern.StreamRatio < 0.5 {
			t.Errorf("%s stream ratio = %.2f, want >= 0.5 (evidently sequential)", seq, b.Pattern.StreamRatio)
		}
	}
	d := byName["deepsjeng"]
	if d.Pattern.StreamRatio > 0.3 {
		t.Errorf("deepsjeng stream ratio = %.2f, want <= 0.3 (irregular)", d.Pattern.StreamRatio)
	}
	// lbm's page-vs-time plot is a set of clean parallel ramps (its arrays
	// are swept in lockstep); deepsjeng's is noise. The stream recognizer
	// separates them by an order of magnitude.
	if byName["lbm"].Pattern.StreamRatio < 4*d.Pattern.StreamRatio {
		t.Errorf("lbm stream ratio %.2f not ≫ deepsjeng's %.2f",
			byName["lbm"].Pattern.StreamRatio, d.Pattern.StreamRatio)
	}
}

func TestFigure6StreamListLength(t *testing.T) {
	f, err := Figure6(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	best := f.Best()
	if best < 20 || best > 40 {
		t.Errorf("combined optimum at length %d, want near the paper's 30", best)
	}
	// bwaves sweeps ~24 arrays concurrently: short lists must thrash.
	if f.Bwaves[0] < f.Bwaves[4]+0.02 {
		t.Errorf("bwaves at length 2 (%.3f) should be clearly worse than at 30 (%.3f)",
			f.Bwaves[0], f.Bwaves[4])
	}
	// lbm needs only a handful of streams; by length 10 it must be at its
	// plateau (within half a percent of its length-30 value).
	if f.Lbm[2] > f.Lbm[4]+0.005 {
		t.Errorf("lbm at length 10 (%.3f) should match its plateau (%.3f)", f.Lbm[2], f.Lbm[4])
	}
}

func TestFigure7LoadLength(t *testing.T) {
	f, err := Figure7(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, n := range f.Benchmarks {
		idx[n] = i
	}
	llIdx := map[int]int{}
	for i, ll := range f.LoadLengths {
		llIdx[ll] = i
	}
	// The paper: past 4 pages per preload, mcf and deepsjeng lose
	// substantially.
	for _, irr := range []string{"mcf", "deepsjeng"} {
		row := f.Norm[idx[irr]]
		if row[llIdx[32]] < row[llIdx[4]]+0.03 {
			t.Errorf("%s at L=32 (%.3f) should be substantially worse than L=4 (%.3f)",
				irr, row[llIdx[32]], row[llIdx[4]])
		}
	}
	// Regular benchmarks keep improving (or hold) as the distance grows.
	for _, reg := range []string{"lbm", "bwaves"} {
		row := f.Norm[idx[reg]]
		if row[llIdx[8]] > row[llIdx[1]] {
			t.Errorf("%s at L=8 (%.3f) should not be worse than L=1 (%.3f)",
				reg, row[llIdx[8]], row[llIdx[1]])
		}
	}
}

func TestFigure8DFP(t *testing.T) {
	f, err := Figure8(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Figure8Row{}
	for _, r := range f.Rows {
		rows[r.Name] = r
	}
	// Regular set gains; the paper's microbenchmark peaks at +18.6% and
	// the regular mean is 11.4%.
	if got := rows["microbenchmark"].DFPImprovement; got < 14 || got > 24 {
		t.Errorf("microbenchmark DFP = %+.1f%%, want near +18.6%%", got)
	}
	if got := rows["lbm"].DFPImprovement; got < 9 || got > 17 {
		t.Errorf("lbm DFP = %+.1f%%, want near +13.3%%", got)
	}
	if f.RegularMean < 8 || f.RegularMean > 18 {
		t.Errorf("regular mean = %.1f%%, want near the paper's 11.4%%", f.RegularMean)
	}
	// Irregular set loses under plain DFP...
	for _, irr := range []string{"deepsjeng", "roms", "omnetpp"} {
		if got := rows[irr].DFPImprovement; got > -10 {
			t.Errorf("%s plain DFP = %+.1f%%, want a substantial loss", irr, got)
		}
	}
	if got := rows["mcf"].DFPImprovement; got > -1 {
		t.Errorf("mcf plain DFP = %+.1f%%, want a loss", got)
	}
	// ...and DFP-stop bounds every loss to a few percent (paper: the
	// overhead mean drops from 38.52%% to 2.82%%).
	for _, r := range f.Rows {
		if r.StopImprovement < -4 {
			t.Errorf("%s DFP-stop = %+.1f%%, want bounded loss (>= -4%%)", r.Name, r.StopImprovement)
		}
	}
	if f.OverheadMeanStop > 4 {
		t.Errorf("overhead mean under DFP-stop = %.1f%%, want <= 4%%", f.OverheadMeanStop)
	}
	if f.OverheadMeanDFP < 4*f.OverheadMeanStop {
		t.Errorf("stop mechanism recovered too little: %.1f%% -> %.1f%%",
			f.OverheadMeanDFP, f.OverheadMeanStop)
	}
	// The safety valve must fire exactly on the benchmarks that need it.
	for _, irr := range []string{"deepsjeng", "roms", "omnetpp", "mcf"} {
		if !rows[irr].Stopped {
			t.Errorf("%s: safety valve did not fire", irr)
		}
	}
	for _, reg := range []string{"lbm", "bwaves", "wrf", "microbenchmark"} {
		if rows[reg].Stopped {
			t.Errorf("%s: safety valve fired on a regular benchmark", reg)
		}
	}
}

func TestFigure9Threshold(t *testing.T) {
	f, err := Figure9(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	best := f.Best()
	if best < 0.02 || best > 0.10 {
		t.Errorf("best threshold = %.0f%%, want near the paper's 5%%", best*100)
	}
	// Points must shrink monotonically as the threshold rises.
	for i := 1; i < len(f.Points); i++ {
		if f.Points[i] > f.Points[i-1] {
			t.Errorf("points not monotone: %v", f.Points)
			break
		}
	}
	// 50% must be worse than the sweet spot: it forgoes most conversions.
	if f.Normalized[len(f.Normalized)-1] < f.Normalized[2] {
		t.Errorf("threshold 50%% (%.3f) outperformed 5%% (%.3f)",
			f.Normalized[len(f.Normalized)-1], f.Normalized[2])
	}
}

func TestFigure10SIP(t *testing.T) {
	f, err := Figure10(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]SchemeRow{}
	for _, r := range f.Rows {
		rows[r.Name] = r
	}
	if got := rows["deepsjeng"].Improvement; got < 6 || got > 16 {
		t.Errorf("deepsjeng SIP = %+.1f%%, want near the paper's +9.0%%", got)
	}
	if got := rows["mcf.2006"].Improvement; got < 2 || got > 9 {
		t.Errorf("mcf.2006 SIP = %+.1f%%, want near the paper's +4.9%%", got)
	}
	// mcf is the wash: check overhead on Class-1 accesses offsets the
	// Class-3 gains.
	if got := rows["mcf"].Improvement; got < -2.5 || got > 2.5 {
		t.Errorf("mcf SIP = %+.1f%%, want a wash (|x| <= 2.5%%)", got)
	}
	// lbm and the microbenchmark have no irregular sites: zero points,
	// zero effect.
	for _, name := range []string{"lbm", "microbenchmark"} {
		if rows[name].Points != 0 {
			t.Errorf("%s: %d instrumentation points, want 0", name, rows[name].Points)
		}
		if got := rows[name].Improvement; got < -0.5 || got > 0.5 {
			t.Errorf("%s SIP = %+.1f%%, want ~0", name, got)
		}
	}
}

func TestFigure11Vision(t *testing.T) {
	f, err := Figure11(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if f.SIFTDFPImprovement < 6 || f.SIFTDFPImprovement > 15 {
		t.Errorf("SIFT DFP = %+.1f%%, want near the paper's +9.5%%", f.SIFTDFPImprovement)
	}
	if f.MSERSIPImprovement < 1.5 || f.MSERSIPImprovement > 9 {
		t.Errorf("MSER SIP = %+.1f%%, want near the paper's +3.0%%", f.MSERSIPImprovement)
	}
}

func TestFigure12Hybrid(t *testing.T) {
	f, err := Figure12(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f.Rows {
		best := row.SIP
		if row.DFP < best {
			best = row.DFP
		}
		// Hybrid ≈ best of the two. The paper's own worst case is mcf,
		// where the hybrid loses ~4.2% even though each scheme alone is
		// near neutral — so the bound is "close to the best scheme, and
		// never beyond the paper's worst-case overhead".
		if row.Hybrid > best+0.05 {
			t.Errorf("%s hybrid %.3f much worse than best single scheme %.3f",
				row.Name, row.Hybrid, best)
		}
		if row.Hybrid > 1.055 {
			t.Errorf("%s hybrid %.3f exceeds the paper's worst-case band (~1.042)", row.Name, row.Hybrid)
		}
	}
}

func TestFigure13MixedBlood(t *testing.T) {
	f, err := Figure13(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	row := f.Row
	// The paper: SIP +1.6%, DFP +6.0%, hybrid +7.1% — the hybrid beats
	// both schemes alone, and DFP beats SIP.
	if !(row.Hybrid < row.DFP && row.Hybrid < row.SIP) {
		t.Errorf("hybrid (%.3f) does not beat both SIP (%.3f) and DFP (%.3f)",
			row.Hybrid, row.SIP, row.DFP)
	}
	if !(row.DFP < row.SIP) {
		t.Errorf("DFP (%.3f) should beat SIP (%.3f) on mixed-blood", row.DFP, row.SIP)
	}
	if imp := 100 * (1 - row.Hybrid); imp < 4 || imp > 12 {
		t.Errorf("hybrid improvement = %+.1f%%, want near the paper's +7.1%%", imp)
	}
}

func TestTable1Classification(t *testing.T) {
	tab, err := Table1(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if m := tab.Mismatches(); len(m) != 0 {
		t.Errorf("measured classification disagrees with Table 1: %v", m)
	}
}

func TestTable2Points(t *testing.T) {
	tab, err := Table2(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	points := map[string]int{}
	for _, r := range tab.Rows {
		points[r.Name] = r.Points
	}
	// Zero-point benchmarks must be exactly zero (the §5.5 TCB argument).
	for _, name := range []string{"lbm", "SIFT", "microbenchmark"} {
		if points[name] != 0 {
			t.Errorf("%s: %d points, want 0", name, points[name])
		}
	}
	// The ordering of the instrumented ones must match the paper:
	// mcf.2006 > mcf > deepsjeng/MSER/xz > 0.
	if !(points["mcf.2006"] > points["mcf"]) {
		t.Errorf("mcf.2006 (%d) should have more points than mcf (%d)",
			points["mcf.2006"], points["mcf"])
	}
	for _, name := range []string{"xz", "deepsjeng", "MSER"} {
		if points[name] <= 0 || points[name] >= points["mcf"] {
			t.Errorf("%s: %d points, want in (0, mcf=%d)", name, points[name], points["mcf"])
		}
	}
}

func TestSchemeStringsAndSets(t *testing.T) {
	if sim.Hybrid.String() != "SIP+DFP" {
		t.Errorf("hybrid scheme name = %q", sim.Hybrid.String())
	}
	if len(LargeWorkingSet()) != 9 || len(SIPSet()) != 6 || len(Figure7Set()) != 7 {
		t.Error("experiment benchmark sets changed size unexpectedly")
	}
}

func TestRunRejectsUninstrumentableSIP(t *testing.T) {
	// SIP needs the paper's C/C++ instrumenter; a Fortran benchmark must
	// fail rather than run uninstrumented.
	r := NewRunner(Default())
	if _, err := r.result(r.cell("bwaves", sim.SIP)); err == nil {
		t.Error("the SIP cell instrumented a Fortran benchmark")
	}
}
