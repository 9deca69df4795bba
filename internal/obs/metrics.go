package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// Derived metrics. A Summary folds the event stream into a Report as it
// is emitted; BuildReport is the same fold over a recorded slice. Both
// accept events in emission order (as the engine emits them), which is
// causal, not timestamp, order.

// Point is one sample of a time series.
type Point struct {
	// T is the sample's virtual-cycle timestamp.
	T uint64
	// V is the sample value.
	V float64
}

// Histogram is a fixed-bound latency histogram. Counts[i] holds samples
// with latency <= Bounds[i]; Counts[len(Bounds)] holds the overflow.
type Histogram struct {
	Bounds []uint64
	Counts []uint64
	Total  uint64
	Sum    uint64
	Max    uint64
}

// Mean returns the mean sample value (0 for an empty histogram).
func (h Histogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Total)
}

// DefaultLatencyBounds brackets the protocol's interesting fault
// latencies: the ~64k-cycle bare fault cost, preload-shortened faults
// below it, and channel-queueing pileups above it.
func DefaultLatencyBounds() []uint64 {
	return []uint64{25_000, 50_000, 65_000, 80_000, 110_000, 150_000, 250_000, 500_000}
}

// StreamStats summarizes predictor stream lifecycles.
type StreamStats struct {
	// Started counts streams opened (KindStreamStart).
	Started uint64
	// Hits counts faults that extended a stream (KindStreamHit).
	Hits uint64
	// Evicted counts streams pushed out of the LRU list
	// (KindStreamEnd); Started - Evicted were live at end of run.
	Evicted uint64
	// MaxHits is the most extensions any single evicted stream saw.
	MaxHits uint64
}

// MeanHits returns the mean extensions per started stream.
func (s StreamStats) MeanHits() float64 {
	if s.Started == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Started)
}

// QuotaShare is one enclave's slice of an arbitrated EPC partition.
type QuotaShare struct {
	// Enclave is the enclave index (KindQuotaRebalance's Batch).
	Enclave uint64
	// Quota is the enclave's frame quota at the last rebalance (V1).
	Quota uint64
	// Resident is its resident frame count at that instant (V2).
	Resident uint64
}

// utilizationBuckets is the number of time windows a Report splits the
// channel's busy time into.
const utilizationBuckets = 20

// busyRun is one stretch of back-to-back channel transfers, [lo, hi):
// each transfer in it started exactly when the previous one completed.
type busyRun struct{ lo, hi uint64 }

// Summary is a Hook that folds every event into the Report state as it
// is emitted, so a run's report needs no recorded timeline: memory grows
// with the channel's busy runs and the service thread's scans, not with
// the event count. Fault latencies are counted straight into the
// report's fixed bounds, so their state is O(len(DefaultLatencyBounds)).
// The channel-utilization buckets need the run's final span, so the
// channel's transfers are kept as busy runs and bucketed when Report is
// called. Like Recorder it rides one single-goroutine run and takes no
// locks.
type Summary struct {
	counts    [kindCount]uint64
	span      uint64
	runs      []busyRun
	latency   Histogram
	accuracy  []Point
	occupancy []Point
	streams   StreamStats
	quota     []QuotaShare
	stop      uint64
	stopped   bool
}

// NewSummary returns an empty Summary.
func NewSummary() *Summary {
	bounds := DefaultLatencyBounds()
	return &Summary{latency: Histogram{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}}
}

// Emit implements Hook.
func (s *Summary) Emit(e Event) {
	s.counts[e.Kind]++
	if e.T > s.span {
		s.span = e.T
	}
	switch e.Kind {
	case KindLoadStart:
		// V1 is the completion cycle, which can outrun every timestamp.
		if e.V1 > s.span {
			s.span = e.V1
		}
		if e.V1 <= e.T {
			break
		}
		if n := len(s.runs); n > 0 && s.runs[n-1].hi == e.T {
			s.runs[n-1].hi = e.V1
		} else {
			s.runs = append(s.runs, busyRun{e.T, e.V1})
		}
	case KindFaultEnd:
		// The first bound >= V1 names the slot; past the last bound
		// lies the overflow slot.
		h := &s.latency
		slot, _ := slices.BinarySearch(h.Bounds, e.V1)
		h.Counts[slot]++
		h.Total++
		h.Sum += e.V1
		h.Max = max(h.Max, e.V1)
	case KindAccuracy:
		// Scans before the first preload have no accuracy to report.
		if e.V1 != 0 {
			s.accuracy = append(s.accuracy, Point{T: e.T, V: float64(e.V2) / float64(e.V1)})
		}
	case KindScan:
		s.occupancy = append(s.occupancy, Point{T: e.T, V: float64(e.V2)})
	case KindStreamStart:
		s.streams.Started++
	case KindStreamHit:
		s.streams.Hits++
	case KindStreamEnd:
		s.streams.Evicted++
		s.streams.MaxHits = max(s.streams.MaxHits, e.V1)
	case KindQuotaRebalance:
		for uint64(len(s.quota)) <= e.Batch {
			s.quota = append(s.quota, QuotaShare{Enclave: uint64(len(s.quota))})
		}
		s.quota[e.Batch] = QuotaShare{Enclave: e.Batch, Quota: e.V1, Resident: e.V2}
	case KindDFPStop:
		if !s.stopped {
			s.stop, s.stopped = e.T, true
		}
	}
}

// Report derives every metric from the events folded so far. The
// Summary stays usable: later events extend the next Report, never the
// one already returned.
func (s *Summary) Report() Report {
	latency := s.latency
	latency.Bounds = slices.Clone(latency.Bounds)
	latency.Counts = slices.Clone(latency.Counts)
	r := Report{
		Counts:    s.counts,
		Span:      s.span,
		Latency:   latency,
		Accuracy:  slices.Clip(s.accuracy),
		Occupancy: slices.Clip(s.occupancy),
		Streams:   s.streams,
		Quota:     slices.Clone(s.quota),
		StopCycle: s.stop,
	}
	for _, run := range s.runs {
		r.Busy += run.hi - run.lo
	}
	if r.Span > 0 {
		r.Utilization = float64(r.Busy) / float64(r.Span)
		r.UtilizationBuckets = s.buckets()
	}
	return r
}

// buckets splits [0, span) into utilizationBuckets equal windows and
// returns the fraction of each window the channel spent busy; a run
// spanning a window boundary contributes to every window it overlaps.
// Each point's T is its window's start cycle.
func (s *Summary) buckets() []Point {
	const n = utilizationBuckets
	busy := make([]uint64, n)
	width := max((s.span+uint64(n)-1)/uint64(n), 1)
	for _, run := range s.runs {
		for b := run.lo / width; b < uint64(n) && b*width < run.hi; b++ {
			lo := max(b*width, run.lo)
			hi := min((b+1)*width, run.hi)
			if hi > lo {
				busy[b] += hi - lo
			}
		}
	}
	out := make([]Point, n)
	for i := range out {
		out[i] = Point{T: uint64(i) * width, V: float64(busy[i]) / float64(width)}
	}
	return out
}

// Report bundles every derived metric of one run for presentation.
type Report struct {
	// Counts holds per-kind event totals, indexed by Kind.
	Counts [kindCount]uint64
	// Span is the run's observed extent in cycles.
	Span uint64
	// Busy is the channel's total transfer cycles; Utilization is
	// Busy/Span.
	Busy        uint64
	Utilization float64
	// UtilizationBuckets is the channel-busy fraction per time window.
	UtilizationBuckets []Point
	// Latency is the fault-latency histogram.
	Latency Histogram
	// Accuracy is the preload-accuracy series (per service scan).
	Accuracy []Point
	// Occupancy is the resident-frame series (per service scan).
	Occupancy []Point
	// Streams summarizes predictor stream lifecycles.
	Streams StreamStats
	// Quota is the final per-enclave EPC quota partition (nil unless an
	// arbitrated quota policy emitted rebalance events).
	Quota []QuotaShare
	// StopCycle is the DFP-stop trip cycle (0 = never fired).
	StopCycle uint64
}

// BuildReport derives every metric from a recorded timeline: the
// Summary fold over the slice.
func BuildReport(events []Event) Report {
	s := NewSummary()
	for _, e := range events {
		s.Emit(e)
	}
	return s.Report()
}

// MarshalJSON renders the report with per-kind counts keyed by wire name
// (zero kinds omitted) instead of the internal Kind-indexed array; the
// other fields marshal as declared. Output is deterministic: map keys are
// sorted by encoding/json.
func (r Report) MarshalJSON() ([]byte, error) {
	counts := make(map[string]uint64)
	for _, k := range Kinds() {
		if r.Counts[k] > 0 {
			counts[k.String()] = r.Counts[k]
		}
	}
	return json.Marshal(struct {
		Counts             map[string]uint64 `json:"counts"`
		Span               uint64            `json:"span"`
		Busy               uint64            `json:"busy"`
		Utilization        float64           `json:"utilization"`
		UtilizationBuckets []Point           `json:"utilization_buckets,omitempty"`
		Latency            Histogram         `json:"latency"`
		Accuracy           []Point           `json:"accuracy,omitempty"`
		Occupancy          []Point           `json:"occupancy,omitempty"`
		Streams            StreamStats       `json:"streams"`
		Quota              []QuotaShare      `json:"quota,omitempty"`
		StopCycle          uint64            `json:"stop_cycle"`
	}{counts, r.Span, r.Busy, r.Utilization, r.UtilizationBuckets,
		r.Latency, r.Accuracy, r.Occupancy, r.Streams, r.Quota, r.StopCycle})
}

// String renders the report as a deterministic text block.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "span:                %d cycles\n", r.Span)
	fmt.Fprintf(&b, "channel busy:        %d cycles (%.1f%% utilization)\n",
		r.Busy, 100*r.Utilization)
	b.WriteString("events by kind:\n")
	for _, k := range Kinds() {
		if r.Counts[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-16s %d\n", k.String(), r.Counts[k])
	}
	if r.Latency.Total > 0 {
		fmt.Fprintf(&b, "fault latency:       mean %.0f, max %d cycles over %d faults\n",
			r.Latency.Mean(), r.Latency.Max, r.Latency.Total)
		for i, bound := range r.Latency.Bounds {
			fmt.Fprintf(&b, "  <= %-9d %d\n", bound, r.Latency.Counts[i])
		}
		fmt.Fprintf(&b, "  >  %-9d %d\n",
			r.Latency.Bounds[len(r.Latency.Bounds)-1], r.Latency.Counts[len(r.Latency.Bounds)])
	}
	if len(r.UtilizationBuckets) > 0 {
		b.WriteString("channel utilization over time:\n")
		for _, p := range r.UtilizationBuckets {
			fmt.Fprintf(&b, "  @%-12d %5.1f%%\n", p.T, 100*p.V)
		}
	}
	if n := len(r.Accuracy); n > 0 {
		fmt.Fprintf(&b, "preload accuracy:    %.3f first scan -> %.3f last scan (%d scans)\n",
			r.Accuracy[0].V, r.Accuracy[n-1].V, n)
	}
	if n := len(r.Occupancy); n > 0 {
		fmt.Fprintf(&b, "EPC occupancy:       %.0f first scan -> %.0f last scan frames\n",
			r.Occupancy[0].V, r.Occupancy[n-1].V)
	}
	if r.Streams.Started > 0 {
		fmt.Fprintf(&b, "streams:             %d started, %d extensions (mean %.2f), %d evicted, max %d hits\n",
			r.Streams.Started, r.Streams.Hits, r.Streams.MeanHits(),
			r.Streams.Evicted, r.Streams.MaxHits)
	}
	if len(r.Quota) > 0 {
		fmt.Fprintf(&b, "EPC quota partition: %d enclaves, %d rebalance events\n",
			len(r.Quota), r.Counts[KindQuotaRebalance])
		for _, q := range r.Quota {
			fmt.Fprintf(&b, "  enclave %-4d quota %-6d resident %d\n",
				q.Enclave, q.Quota, q.Resident)
		}
	}
	if r.StopCycle > 0 {
		fmt.Fprintf(&b, "DFP-stop:            tripped at cycle %d\n", r.StopCycle)
	}
	return b.String()
}
