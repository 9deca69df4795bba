package experiments

import (
	"fmt"

	"sgxpreload/internal/sim"
	"sgxpreload/internal/stats"
	"sgxpreload/internal/workload"
)

// SummaryRow is one benchmark's improvement under every scheme.
type SummaryRow struct {
	Name     string
	Category workload.Category
	// Baseline run characteristics.
	BaselineCycles uint64
	Faults         uint64
	FaultShare     float64 // fraction of baseline time in fault handling
	// Improvements in percent (positive = faster); SIP and Hybrid are
	// meaningless when Instrumentable is false.
	DFP            float64
	DFPStop        float64
	SIP            float64
	Hybrid         float64
	Points         int // SIP instrumentation points
	Stopped        bool
	Instrumentable bool
}

// SummaryResult is the evaluation in one table: every benchmark under
// every scheme.
type SummaryResult struct {
	Rows []SummaryRow
}

// Summary runs every benchmark under every applicable scheme — the
// repository's one-stop paper-versus-measured record.
func Summary(r *Runner) (SummaryResult, error) {
	var out SummaryResult
	ws := workload.All()
	var cells []cell
	for _, w := range ws {
		cells = append(cells, r.grid([]string{w.Name}, sim.Baseline, sim.DFP, sim.DFPStop)...)
		if w.Instrumentable {
			cells = append(cells, r.grid([]string{w.Name}, sim.SIP, sim.Hybrid)...)
		}
	}
	res, err := r.simulate("summary", cells)
	if err != nil {
		return out, err
	}
	for _, w := range ws {
		base, d, ds := res[0], res[1], res[2]
		res = res[3:]
		row := SummaryRow{
			Name:           w.Name,
			Category:       w.Category,
			BaselineCycles: base.Cycles,
			Faults:         base.Faults(),
			FaultShare:     float64(base.FaultCycles()) / float64(base.Cycles),
			DFP:            stats.ImprovementPct(d.Cycles, base.Cycles),
			DFPStop:        stats.ImprovementPct(ds.Cycles, base.Cycles),
			Stopped:        ds.Kernel.DFPStopped,
			Instrumentable: w.Instrumentable,
		}
		if w.Instrumentable {
			sel, err := r.Selection(w)
			if err != nil {
				return out, err
			}
			row.Points = sel.Points()
			row.SIP = stats.ImprovementPct(res[0].Cycles, base.Cycles)
			row.Hybrid = stats.ImprovementPct(res[1].Cycles, base.Cycles)
			res = res[2:]
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the summary.
func (s SummaryResult) String() string {
	t := &stats.Table{Header: []string{
		"benchmark", "faultShare", "DFP", "DFP-stop", "SIP", "SIP+DFP", "points",
	}}
	for _, row := range s.Rows {
		sip, hyb := "n/a", "n/a"
		if row.Instrumentable {
			sip = fmt.Sprintf("%+.1f%%", row.SIP)
			hyb = fmt.Sprintf("%+.1f%%", row.Hybrid)
		}
		t.Add(row.Name,
			fmt.Sprintf("%.0f%%", 100*row.FaultShare),
			fmt.Sprintf("%+.1f%%", row.DFP),
			fmt.Sprintf("%+.1f%%", row.DFPStop),
			sip, hyb, row.Points)
	}
	return "Summary: improvement over baseline, every benchmark x scheme\n" + t.String()
}
