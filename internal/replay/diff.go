package replay

import (
	"fmt"
	"strings"

	"sgxpreload/internal/obs"
)

// Compare and its result types. A Diff answers the paper's run-by-run
// questions about two recorded timelines (say DFP versus DFP-stop on the
// same workload): where do the runs first diverge, how do the per-kind
// event populations differ, and how does every derived Report metric
// move. Both renderings — String and plain json.Marshal (every field is
// tagged) — are deterministic functions of the two timelines.

// formatWire renders a wire event compactly for the text diff.
func formatWire(w obs.WireEvent) string {
	return fmt.Sprintf("{t:%d kind:%s page:%d batch:%d v1:%d v2:%d}",
		w.T, w.Kind, w.Page, w.Batch, w.V1, w.V2)
}

// Divergence locates the first event-level difference between two
// timelines: the 0-based index at which they stop agreeing, and the two
// events there. A nil side means that timeline ended at the index (one
// run is a strict prefix of the other).
type Divergence struct {
	Index int            `json:"index"`
	A     *obs.WireEvent `json:"a"`
	B     *obs.WireEvent `json:"b"`
}

// Delta is one named quantity compared across the two timelines.
type Delta struct {
	Name string  `json:"name"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	// Diff is B - A.
	Diff float64 `json:"diff"`
}

// Diff is the full comparison of two timelines.
type Diff struct {
	// LenA and LenB are the two timelines' event counts.
	LenA int `json:"len_a"`
	LenB int `json:"len_b"`
	// Identical reports event-level equality (same length, same events
	// in the same order); when true, First is nil and every delta is 0.
	Identical bool `json:"identical"`
	// First is the first divergent event, nil when Identical.
	First *Divergence `json:"first_divergence,omitempty"`
	// Counts holds per-kind event-count deltas, in Kind declaration
	// order, for every kind either timeline emitted.
	Counts []Delta `json:"count_deltas"`
	// Report holds the derived-metric deltas, one per Report field, in
	// a fixed order.
	Report []Delta `json:"report_deltas"`
}

// Compare diffs two recorded timelines event-by-event and
// metric-by-metric. It does not mutate its inputs.
func Compare(a, b []obs.Event) Diff {
	d := Diff{LenA: len(a), LenB: len(b), Identical: true}

	// First divergent event: the first index where the runs disagree,
	// or the shorter length when one is a strict prefix of the other.
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n && d.Identical; i++ {
		if a[i] != b[i] {
			wa, wb := a[i].Wire(), b[i].Wire()
			d.First = &Divergence{Index: i, A: &wa, B: &wb}
			d.Identical = false
		}
	}
	if d.Identical && len(a) != len(b) {
		div := &Divergence{Index: n}
		if len(a) > n {
			wa := a[n].Wire()
			div.A = &wa
		}
		if len(b) > n {
			wb := b[n].Wire()
			div.B = &wb
		}
		d.First = div
		d.Identical = false
	}

	ra, rb := obs.BuildReport(a), obs.BuildReport(b)
	for _, k := range obs.Kinds() {
		ca, cb := ra.Counts[k], rb.Counts[k]
		if ca == 0 && cb == 0 {
			continue
		}
		d.Counts = append(d.Counts, delta(k.String(), float64(ca), float64(cb)))
	}
	d.Report = reportDeltas(ra, rb)
	return d
}

// reportDeltas flattens the two Reports into one comparable row per
// metric, in a fixed order.
func reportDeltas(a, b obs.Report) []Delta {
	last := func(pts []obs.Point) float64 {
		if len(pts) == 0 {
			return 0
		}
		return pts[len(pts)-1].V
	}
	return []Delta{
		delta("span_cycles", float64(a.Span), float64(b.Span)),
		delta("channel_busy_cycles", float64(a.Busy), float64(b.Busy)),
		delta("channel_utilization", a.Utilization, b.Utilization),
		delta("faults", float64(a.Latency.Total), float64(b.Latency.Total)),
		delta("fault_latency_mean", a.Latency.Mean(), b.Latency.Mean()),
		delta("fault_latency_max", float64(a.Latency.Max), float64(b.Latency.Max)),
		delta("accuracy_last", last(a.Accuracy), last(b.Accuracy)),
		delta("occupancy_last", last(a.Occupancy), last(b.Occupancy)),
		delta("streams_started", float64(a.Streams.Started), float64(b.Streams.Started)),
		delta("streams_hits", float64(a.Streams.Hits), float64(b.Streams.Hits)),
		delta("streams_evicted", float64(a.Streams.Evicted), float64(b.Streams.Evicted)),
		delta("dfp_stop_cycle", float64(a.StopCycle), float64(b.StopCycle)),
	}
}

// delta builds one comparison row.
func delta(name string, a, b float64) Delta {
	return Delta{Name: name, A: a, B: b, Diff: b - a}
}

// String renders the diff as a deterministic text block: the divergence
// point, then every count and report delta with changed rows marked "*".
func (d Diff) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "events:              %d vs %d\n", d.LenA, d.LenB)
	if d.Identical {
		sb.WriteString("timelines:           identical\n")
	} else {
		f := d.First
		fmt.Fprintf(&sb, "first divergence:    event %d\n", f.Index)
		fmt.Fprintf(&sb, "  a: %s\n", sideString(f.A))
		fmt.Fprintf(&sb, "  b: %s\n", sideString(f.B))
	}
	sb.WriteString("event counts (a vs b, diff):\n")
	writeDeltas(&sb, d.Counts, "%.0f", "%+.0f")
	sb.WriteString("report metrics (a vs b, diff):\n")
	writeDeltas(&sb, d.Report, "%.4g", "%+.4g")
	return sb.String()
}

// sideString renders one side of a divergence ("<end of timeline>" when
// that run had no event at the index).
func sideString(w *obs.WireEvent) string {
	if w == nil {
		return "<end of timeline>"
	}
	return formatWire(*w)
}

// writeDeltas renders one delta table with the given value and diff
// formats.
func writeDeltas(sb *strings.Builder, ds []Delta, format, diffFormat string) {
	for _, dl := range ds {
		mark := " "
		if dl.Diff != 0 {
			mark = "*"
		}
		fmt.Fprintf(sb, "  %s %-20s "+format+" vs "+format+" ("+diffFormat+")\n",
			mark, dl.Name, dl.A, dl.B, dl.Diff)
	}
}
