package sgxpreload_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation under `go test -bench=.`. Each benchmark runs the full
// experiment and reports the headline numbers as custom metrics, so the
// bench output is itself the paper-vs-measured record:
//
//	go test -bench=. -benchmem | tee bench_output.txt
//
// Metrics are improvements in percent (positive = faster than the
// baseline, matching the paper's reporting) or normalized execution times
// (1.0 = baseline).
//
// These benchmarks record headline metrics, not wall time: they share
// benchRunner, which simulates each distinct experiment cell once, so
// every iteration after the first reads cached results and its ns/op
// times only the fold into the figure. Wall time is measured by
// internal/experiments' BenchmarkRunAll*, which build a fresh Runner per
// iteration.

import (
	"testing"

	"sgxpreload/internal/experiments"
)

// benchRunner caches traces, profiles and cell results across benchmarks.
var benchRunner = experiments.NewRunner(experiments.Default())

func BenchmarkMotivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.Motivation(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.Slowdown, "slowdown_x")
		b.ReportMetric(float64(m.EnclaveFaultCost), "enclave_fault_cycles")
	}
}

func BenchmarkFigure3PatternProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure3(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range f.Benchmarks {
			b.ReportMetric(row.Pattern.StreamRatio, row.Name+"_stream_ratio")
		}
	}
}

func BenchmarkFigure6StreamListLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure6(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(f.Best()), "best_list_len")
		for j, n := range f.Lengths {
			if n == 2 || n == 30 {
				b.ReportMetric(f.Combined[j], "combined_norm_at_"+itoa(n))
			}
		}
	}
}

func BenchmarkFigure7LoadLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure7(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		for bi, name := range f.Benchmarks {
			if name == "lbm" || name == "deepsjeng" {
				b.ReportMetric(f.Norm[bi][2], name+"_norm_L4")
				b.ReportMetric(f.Norm[bi][5], name+"_norm_L32")
			}
		}
	}
}

func BenchmarkFigure8DFP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure8(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.RegularMean, "regular_mean_pct")
		b.ReportMetric(f.OverheadMeanDFP, "overhead_mean_dfp_pct")
		b.ReportMetric(f.OverheadMeanStop, "overhead_mean_stop_pct")
		for _, row := range f.Rows {
			if row.Name == "microbenchmark" || row.Name == "lbm" || row.Name == "deepsjeng" || row.Name == "roms" {
				b.ReportMetric(row.DFPImprovement, row.Name+"_dfp_pct")
			}
		}
	}
}

func BenchmarkFigure9SIPThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure9(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Best()*100, "best_threshold_pct")
	}
}

func BenchmarkFigure10SIP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure10(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range f.Rows {
			b.ReportMetric(row.Improvement, row.Name+"_sip_pct")
		}
	}
}

func BenchmarkFigure11Vision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure11(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.SIFTDFPImprovement, "SIFT_dfp_pct")
		b.ReportMetric(f.MSERSIPImprovement, "MSER_sip_pct")
	}
}

func BenchmarkFigure12Hybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure12(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, row := range f.Rows {
			if row.Hybrid > worst {
				worst = row.Hybrid
			}
			if row.Name == "deepsjeng" {
				b.ReportMetric(row.Hybrid, "deepsjeng_hybrid_norm")
			}
		}
		b.ReportMetric(worst, "worst_hybrid_norm")
	}
}

func BenchmarkFigure13MixedBlood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Figure13(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(1-f.Row.SIP), "sip_pct")
		b.ReportMetric(100*(1-f.Row.DFP), "dfp_pct")
		b.ReportMetric(100*(1-f.Row.Hybrid), "hybrid_pct")
	}
}

func BenchmarkTable1Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table1(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Mismatches())), "mismatches")
	}
}

func BenchmarkTable2InstrumentationPoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table2(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t.Rows {
			b.ReportMetric(float64(row.Points), row.Name+"_points")
		}
	}
}

func BenchmarkSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Summary(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range s.Rows {
			if row.Name == "deepsjeng" || row.Name == "lbm" {
				b.ReportMetric(row.DFPStop, row.Name+"_dfpstop_pct")
			}
		}
	}
}

func BenchmarkAblationEPCSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.EPCSweep(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		// lbm at the tightest and loosest EPC.
		b.ReportMetric(a.Improvement[1][0], "lbm_pct_at_1024p")
		b.ReportMetric(a.Improvement[1][len(a.EPCPages)-1], "lbm_pct_at_12288p")
	}
}

func BenchmarkAblationPredictors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.PredictorAblation(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		for bi, bench := range a.Benchmarks {
			if bench != "deepsjeng" {
				continue
			}
			for ki, kind := range a.Kinds {
				b.ReportMetric(a.Improvement[bi][ki], "deepsjeng_"+string(kind)+"_pct")
			}
		}
	}
}

func BenchmarkAblationEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.EvictionAblation(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		for bi, bench := range a.Benchmarks {
			if bench == "deepsjeng" {
				for pi, pol := range a.Policies {
					b.ReportMetric(a.Norm[bi][pi], "deepsjeng_"+pol.String()+"_norm")
				}
			}
		}
	}
}

func BenchmarkAblationLoadCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.CostSensitivity(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		for j, load := range a.LoadCosts {
			b.ReportMetric(a.Improvement[j], "lbm_pct_load"+itoa(int(load/1000))+"k")
		}
	}
}

func BenchmarkAblationSharedEPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.SharedEPC(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		for j, name := range a.Names {
			slow := float64(a.SharedCycles[j]) / float64(a.SoloCycles[j])
			b.ReportMetric(slow, name+"_contention_x")
		}
	}
}

func BenchmarkAblationBackwardStreams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.BackwardStreams(benchRunner)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.ForwardOnlyImprovement, "forward_only_pct")
		b.ReportMetric(a.WithBackwardImprovement, "with_backward_pct")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
