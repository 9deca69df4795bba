package experiments

import (
	"fmt"
	"strings"

	"sgxpreload/internal/obs"
	"sgxpreload/internal/plot"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/workload"
)

// RunTraced executes workload w's ref input under scheme with an event
// recorder attached, returning the result together with the recorded
// timeline. The hook only observes the run: the returned Result is
// identical to an untraced Run of the same configuration. Traced runs
// bypass the cell cache, since each needs its own recorder.
func (r *Runner) RunTraced(w *workload.Workload, scheme sim.Scheme) (sim.Result, *obs.Recorder, error) {
	enc, platform, err := r.setup(r.cell(w.Name, scheme))
	if err != nil {
		return sim.Result{}, nil, err
	}
	rec := obs.NewRecorder()
	platform.Hook = rec
	res, err := runAlone(enc, platform)
	if err != nil {
		return sim.Result{}, nil, err
	}
	return res, rec, nil
}

// TraceReport is the per-run observability artifact: the run's counters,
// the derived event metrics, and the page-versus-time timeline figure.
type TraceReport struct {
	// Benchmark and Scheme identify the traced run.
	Benchmark string
	Scheme    sim.Scheme
	// Result is the run's ordinary outcome (identical to an untraced run).
	Result sim.Result
	// Events is the recorded timeline length.
	Events int
	// Report carries the derived metrics.
	Report obs.Report
	chart  plot.Chart
}

// TraceRun executes one traced run and derives its report.
func TraceRun(r *Runner, bench string, scheme sim.Scheme) (*TraceReport, error) {
	w, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	res, rec, err := r.RunTraced(w, scheme)
	if err != nil {
		return nil, err
	}
	return &TraceReport{
		Benchmark: bench,
		Scheme:    scheme,
		Result:    res,
		Events:    rec.Len(),
		Report:    obs.BuildReport(rec.Events()),
		chart: obs.Timeline(fmt.Sprintf("%s / %s event timeline", bench, scheme),
			rec.Events(), 4000),
	}, nil
}

// Trace is the default trace report: deepsjeng under DFP-stop, the
// paper's canonical safety-valve story (§4.2). deepsjeng's irregular
// fault history drives preload accuracy down until the service thread
// trips the global abort; the report shows the accuracy decay, the trip
// point, and the channel going quiet afterwards.
func Trace(r *Runner) (*TraceReport, error) {
	return TraceRun(r, "deepsjeng", sim.DFPStop)
}

// String renders the report.
func (a *TraceReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traced run:          %s under %s (%d events)\n",
		a.Benchmark, a.Scheme, a.Events)
	k := a.Result.Kernel
	fmt.Fprintf(&b, "cycles:              %d (%d demand faults, %d preloads started, %d dropped)\n",
		a.Result.Cycles, k.DemandFaults, k.PreloadsStarted, k.PreloadsDropped)
	if k.DFPStopped {
		status := "MISMATCH"
		if a.Report.StopCycle == k.DFPStopCycle {
			status = "matches"
		}
		fmt.Fprintf(&b, "safety valve:        fired at cycle %d (event timeline %s)\n",
			k.DFPStopCycle, status)
	}
	b.WriteString(a.Report.String())
	return b.String()
}

// Charts implements Charter with the timeline figure.
func (a *TraceReport) Charts() []plot.Chart { return []plot.Chart{a.chart} }
