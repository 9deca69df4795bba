package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"sgxpreload/internal/obs"
	"sgxpreload/internal/replay"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/workload"
)

// ReplayReport is the trace-replay validation artifact: it proves that a
// run's derived metrics survive the export → parse → re-derive round
// trip bit-for-bit (so recorded artifacts can be re-analyzed without
// re-simulating, and shared traces are trustworthy), then demonstrates
// the diff layer on the paper's canonical pair — the same benchmark
// under plain DFP and under DFP-stop (Figure 8's comparison, §4.2).
type ReplayReport struct {
	// Benchmark is the traced workload.
	Benchmark string
	// Events and TraceBytes size the exported primary (DFP-stop) trace.
	Events     int
	TraceBytes int
	// ReportIdentical records whether the live Report and the Report
	// re-derived from the parsed trace render to identical bytes.
	ReportIdentical bool
	// EventsIdentical records whether the parsed timeline equals the
	// recorded one event-for-event.
	EventsIdentical bool
	// Diff compares the DFP timeline (a) against DFP-stop (b).
	Diff replay.Diff
}

// Replay runs the default replay validation: deepsjeng, the safety-valve
// benchmark, under DFP-stop (round trip) and DFP (diff pair).
func Replay(r *Runner) (*ReplayReport, error) {
	return ReplayRun(r, "deepsjeng")
}

// ReplayRun executes the replay validation on one benchmark: trace it
// under DFP-stop, round-trip the trace through JSONL, and diff it
// against the same workload under plain DFP.
func ReplayRun(r *Runner, bench string) (*ReplayReport, error) {
	w, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	_, recStop, err := r.RunTraced(w, sim.DFPStop)
	if err != nil {
		return nil, err
	}
	_, recDFP, err := r.RunTraced(w, sim.DFP)
	if err != nil {
		return nil, err
	}

	// WriteJSONL is the streaming sink over the timeline: the same
	// encoder `sgxsim -trace` writes with.
	live := recStop.Events()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, live); err != nil {
		return nil, fmt.Errorf("experiments: replay export: %w", err)
	}
	replayed, err := replay.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("experiments: replay parse: %w", err)
	}
	eventsIdentical := len(replayed) == len(live)
	for i := 0; eventsIdentical && i < len(live); i++ {
		eventsIdentical = live[i] == replayed[i]
	}
	liveReport := obs.BuildReport(live).String()
	replayReport := obs.BuildReport(replayed).String()

	return &ReplayReport{
		Benchmark:       bench,
		Events:          recStop.Len(),
		TraceBytes:      buf.Len(),
		ReportIdentical: liveReport == replayReport,
		EventsIdentical: eventsIdentical,
		Diff:            replay.Compare(recDFP.Events(), recStop.Events()),
	}, nil
}

// String renders the report.
func (a *ReplayReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traced run:          %s under dfp-stop (%d events, %d trace bytes)\n",
		a.Benchmark, a.Events, a.TraceBytes)
	status := func(ok bool) string {
		if ok {
			return "byte-identical"
		}
		return "MISMATCH"
	}
	fmt.Fprintf(&b, "round-trip events:   %s\n", status(a.EventsIdentical))
	fmt.Fprintf(&b, "round-trip report:   %s\n", status(a.ReportIdentical))
	fmt.Fprintf(&b, "diff (a = %s dfp, b = %s dfp-stop):\n", a.Benchmark, a.Benchmark)
	b.WriteString(a.Diff.String())
	return b.String()
}
