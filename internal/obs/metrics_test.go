package obs

import (
	"slices"
	"strings"
	"testing"

	"sgxpreload/internal/mem"
)

func TestSpanAndBusy(t *testing.T) {
	events := []Event{
		{T: 0, Kind: KindLoadStart, Page: 1, V1: 50},
		{T: 60, Kind: KindScan, V2: 3},
	}
	if got := BuildReport(events).Span; got != 60 {
		t.Fatalf("Span = %d, want 60", got)
	}
	// A transfer's completion can extend the span past every timestamp.
	events[0].V1 = 90
	r := BuildReport(events)
	if r.Span != 90 {
		t.Fatalf("Span = %d, want 90 (open transfer)", r.Span)
	}
	if r.Busy != 90 {
		t.Fatalf("Busy = %d, want 90", r.Busy)
	}
	// Back-to-back transfers fold into one busy run; a zero-length one
	// adds nothing.
	events = append(events,
		Event{T: 90, Kind: KindLoadStart, Page: 2, V1: 100},
		Event{T: 100, Kind: KindLoadStart, Page: 3, V1: 100})
	if r := BuildReport(events); r.Busy != 100 || r.Span != 100 {
		t.Fatalf("busy %d span %d, want 100/100", r.Busy, r.Span)
	}
	if r := BuildReport(nil); r.Span != 0 || r.Busy != 0 {
		t.Fatal("empty stream not zero")
	}
}

func TestUtilization(t *testing.T) {
	// Span 200 over 20 buckets: each bucket is 10 cycles wide.
	events := []Event{
		{T: 0, Kind: KindLoadStart, Page: 1, V1: 100},
		{T: 200, Kind: KindScan}, // fixes the span at 200
	}
	u := BuildReport(events).UtilizationBuckets
	if len(u) != 20 {
		t.Fatalf("got %d buckets, want 20", len(u))
	}
	if u[9].V != 1.0 || u[10].V != 0.0 {
		t.Fatalf("utilization = %.2f, %.2f; want 1.00, 0.00", u[9].V, u[10].V)
	}
	if u[0].T != 0 || u[10].T != 100 {
		t.Fatalf("bucket starts = %d, %d; want 0, 100", u[0].T, u[10].T)
	}
	// A transfer spanning boundaries contributes to every bucket it
	// overlaps.
	events[0] = Event{T: 25, Kind: KindLoadStart, Page: 1, V1: 175}
	u = BuildReport(events).UtilizationBuckets
	if u[1].V != 0 || u[2].V != 0.5 || u[10].V != 1 || u[17].V != 0.5 || u[18].V != 0 {
		t.Fatalf("boundary transfer: %.2f %.2f %.2f %.2f %.2f; want 0, 0.5, 1, 0.5, 0",
			u[1].V, u[2].V, u[10].V, u[17].V, u[18].V)
	}
	if BuildReport(nil).UtilizationBuckets != nil {
		t.Fatal("empty stream has utilization buckets")
	}
}

func TestFaultLatencies(t *testing.T) {
	events := []Event{
		{Kind: KindFaultEnd, V1: 5},
		{Kind: KindFaultEnd, V1: 25_000}, // on a bound: counts at or below it
		{Kind: KindFaultEnd, V1: 30_000},
		{Kind: KindFaultEnd, V1: 5},
		{Kind: KindFaultEnd, V1: 600_000},
		{Kind: KindScan}, // ignored
	}
	h := BuildReport(events).Latency
	if h.Total != 5 || h.Sum != 655_010 || h.Max != 600_000 {
		t.Fatalf("total %d sum %d max %d", h.Total, h.Sum, h.Max)
	}
	want := []uint64{3, 1, 0, 0, 0, 0, 0, 0, 1}
	if !slices.Equal(h.Counts, want) {
		t.Fatalf("counts = %v, want %v", h.Counts, want)
	}
	if h.Mean() != 131_002 {
		t.Fatalf("mean = %v, want 131002", h.Mean())
	}
	if (Histogram{}).Mean() != 0 {
		t.Fatal("empty histogram mean not 0")
	}
}

func TestAccuracyAndOccupancySeries(t *testing.T) {
	events := []Event{
		{T: 10, Kind: KindAccuracy, V1: 0, V2: 0}, // before first preload: skipped
		{T: 20, Kind: KindAccuracy, V1: 10, V2: 4},
		{T: 30, Kind: KindAccuracy, V1: 20, V2: 15},
		{T: 20, Kind: KindScan, V1: 1, V2: 7},
		{T: 30, Kind: KindScan, V1: 0, V2: 9},
	}
	r := BuildReport(events)
	if acc := r.Accuracy; len(acc) != 2 || acc[0].V != 0.4 || acc[1].V != 0.75 {
		t.Fatalf("accuracy = %+v", acc)
	}
	if occ := r.Occupancy; len(occ) != 2 || occ[0].V != 7 || occ[1].V != 9 {
		t.Fatalf("occupancy = %+v", occ)
	}
}

func TestStreamsAndStop(t *testing.T) {
	events := []Event{
		{Kind: KindStreamStart, Batch: 1},
		{Kind: KindStreamStart, Batch: 2},
		{Kind: KindStreamHit, Batch: 1, V1: 4},
		{Kind: KindStreamHit, Batch: 1, V1: 4},
		{Kind: KindStreamHit, Batch: 2, V1: 4},
		{Kind: KindStreamEnd, Batch: 1, V1: 2},
		{T: 500, Kind: KindDFPStop},
		{T: 900, Kind: KindDFPStop}, // only the first trip counts
	}
	r := BuildReport(events)
	s := r.Streams
	if s.Started != 2 || s.Hits != 3 || s.Evicted != 1 || s.MaxHits != 2 {
		t.Fatalf("streams = %+v", s)
	}
	if s.MeanHits() != 1.5 {
		t.Fatalf("mean hits = %v, want 1.5", s.MeanHits())
	}
	if r.StopCycle != 500 {
		t.Fatalf("StopCycle = %d, want 500", r.StopCycle)
	}
	if BuildReport(nil).StopCycle != 0 {
		t.Fatal("StopCycle of empty stream not 0")
	}
}

// TestSummaryReportIsSnapshot checks a returned Report does not change
// when the Summary keeps folding.
func TestSummaryReportIsSnapshot(t *testing.T) {
	s := NewSummary()
	s.Emit(Event{T: 1, Kind: KindQuotaRebalance, Batch: 0, V1: 10})
	s.Emit(Event{T: 2, Kind: KindScan, V2: 5})
	s.Emit(Event{T: 2, Kind: KindFaultEnd, V1: 30_000})
	r := s.Report()
	before := r.String()
	s.Emit(Event{T: 3, Kind: KindQuotaRebalance, Batch: 0, V1: 20})
	s.Emit(Event{T: 4, Kind: KindScan, V2: 6})
	s.Emit(Event{T: 5, Kind: KindFaultEnd, V1: 30_000})
	if r.String() != before {
		t.Fatalf("earlier report changed:\n%s\nwant:\n%s", r.String(), before)
	}
	if got := s.Report().Quota[0].Quota; got != 20 {
		t.Fatalf("later report quota = %d, want 20", got)
	}
}

func TestBuildReport(t *testing.T) {
	events := []Event{
		{T: 0, Kind: KindFaultBegin, Page: 1},
		{T: 64000, Kind: KindFaultEnd, Page: 1, V1: 64000},
		{T: 100, Kind: KindLoadStart, Page: 1, V1: 44100},
		{T: 44100, Kind: KindLoadComplete, Page: 1},
		{T: 50000, Kind: KindScan, V1: 2, V2: 12},
		{T: 50000, Kind: KindAccuracy, V1: 8, V2: 6},
		{T: 60000, Kind: KindDFPStop},
	}
	r := BuildReport(events)
	if r.Counts[KindFaultEnd] != 1 || r.Counts[KindLoadStart] != 1 {
		t.Fatalf("counts = %v", r.Counts)
	}
	if r.Span != 64000 || r.Busy != 44000 {
		t.Fatalf("span %d busy %d", r.Span, r.Busy)
	}
	if r.StopCycle != 60000 {
		t.Fatalf("stop cycle = %d", r.StopCycle)
	}
	text := r.String()
	for _, want := range []string{
		"span:", "channel busy:", "fault_end", "fault latency:",
		"preload accuracy:", "EPC occupancy:", "DFP-stop:            tripped at cycle 60000",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	if text != BuildReport(events).String() {
		t.Fatal("report text not deterministic")
	}
}

func TestTimeline(t *testing.T) {
	var events []Event
	for i := uint64(0); i < 500; i++ {
		events = append(events,
			Event{T: i * 100, Kind: KindFaultEnd, Page: mem.PageID(i), V1: 64000},
			Event{T: i*100 + 10, Kind: KindLoadComplete, Page: mem.PageID(i + 1), V2: 1},
			Event{T: i*100 + 20, Kind: KindEvict, Page: mem.PageID(i / 2)},
		)
	}
	events = append(events,
		Event{T: 25000, Kind: KindDFPStop},
		Event{T: 30, Kind: KindEvict, Page: mem.NoPage}, // background burst: no y
	)
	c := Timeline("demo", events, 100)
	if len(c.Series) != 4 {
		t.Fatalf("got %d series, want fault/preload/evict/DFP-stop", len(c.Series))
	}
	for _, s := range c.Series[:3] {
		if len(s.X) > 100 {
			t.Errorf("series %s not downsampled: %d points", s.Name, len(s.X))
		}
		if s.X[0] != s.X[0] || len(s.X) != len(s.Y) {
			t.Errorf("series %s malformed", s.Name)
		}
	}
	stop := c.Series[3]
	if stop.Name != "DFP-stop" || stop.Kind != "line" || stop.X[0] != 25000 || stop.X[1] != 25000 {
		t.Fatalf("stop series = %+v", stop)
	}
	if svg := c.SVG(); !strings.Contains(svg, "demo") {
		t.Fatal("SVG missing title")
	}
}

func TestDownsampleKeepsEnds(t *testing.T) {
	var x, y []float64
	for i := 0; i < 1000; i++ {
		x = append(x, float64(i))
		y = append(y, float64(i*2))
	}
	ox, oy := downsample(x, y, 10)
	if len(ox) != 10 || len(oy) != 10 {
		t.Fatalf("downsample kept %d points", len(ox))
	}
	if ox[0] != 0 || ox[9] != 999 {
		t.Fatalf("ends not preserved: %v, %v", ox[0], ox[9])
	}
	ox, _ = downsample(x, y, 0)
	if len(ox) != 1000 {
		t.Fatal("n <= 0 must disable the cap")
	}
}

func TestQuotaShares(t *testing.T) {
	if got := BuildReport(nil).Quota; got != nil {
		t.Fatalf("Quota of empty stream = %v, want nil", got)
	}
	events := []Event{
		// Admission-time vector for two enclaves, then a rebalance that
		// shifts frames from enclave 1 to enclave 0.
		{T: 0, Kind: KindQuotaRebalance, Page: mem.NoPage, Batch: 0, V1: 512, V2: 0},
		{T: 0, Kind: KindQuotaRebalance, Page: mem.NoPage, Batch: 1, V1: 512, V2: 0},
		{T: 900, Kind: KindScan, V2: 1000},
		{T: 1000, Kind: KindQuotaRebalance, Page: mem.NoPage, Batch: 0, V1: 700, V2: 640},
		{T: 1000, Kind: KindQuotaRebalance, Page: mem.NoPage, Batch: 1, V1: 324, V2: 360},
	}
	r := BuildReport(events)
	got := r.Quota
	want := []QuotaShare{
		{Enclave: 0, Quota: 700, Resident: 640},
		{Enclave: 1, Quota: 324, Resident: 360},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d shares, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("share %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	s := r.String()
	if !strings.Contains(s, "EPC quota partition: 2 enclaves, 4 rebalance events") ||
		!strings.Contains(s, "enclave 0    quota 700    resident 640") {
		t.Fatalf("report missing quota section:\n%s", s)
	}
	// Default traces (no rebalance events) keep the section absent.
	if strings.Contains(BuildReport(events[2:3]).String(), "quota") {
		t.Fatal("quota section rendered without rebalance events")
	}
}
