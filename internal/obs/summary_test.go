package obs_test

import (
	"encoding/binary"
	"encoding/json"
	"slices"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/workload"
)

// The reference report: one scan of the recorded timeline per metric,
// the way reports were derived before the Summary fold. FuzzSummary pins
// the fold to it byte for byte.

func refSpan(events []obs.Event) uint64 {
	var end uint64
	for _, e := range events {
		if e.T > end {
			end = e.T
		}
		if e.Kind == obs.KindLoadStart && e.V1 > end {
			end = e.V1
		}
	}
	return end
}

func refUtilization(events []obs.Event, n int) []obs.Point {
	span := refSpan(events)
	if n <= 0 || span == 0 {
		return nil
	}
	busy := make([]uint64, n)
	width := (span + uint64(n) - 1) / uint64(n)
	if width == 0 {
		width = 1
	}
	for _, e := range events {
		if e.Kind != obs.KindLoadStart || e.V1 <= e.T {
			continue
		}
		for b := e.T / width; b < uint64(n) && b*width < e.V1; b++ {
			lo, hi := b*width, (b+1)*width
			if e.T > lo {
				lo = e.T
			}
			if e.V1 < hi {
				hi = e.V1
			}
			if hi > lo {
				busy[b] += hi - lo
			}
		}
	}
	out := make([]obs.Point, n)
	for i := range out {
		out[i] = obs.Point{T: uint64(i) * width, V: float64(busy[i]) / float64(width)}
	}
	return out
}

func refBusyCycles(events []obs.Event) uint64 {
	var busy uint64
	for _, e := range events {
		if e.Kind == obs.KindLoadStart && e.V1 > e.T {
			busy += e.V1 - e.T
		}
	}
	return busy
}

func refFaultLatencies(events []obs.Event, bounds []uint64) obs.Histogram {
	h := obs.Histogram{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
	for _, e := range events {
		if e.Kind != obs.KindFaultEnd {
			continue
		}
		h.Total++
		h.Sum += e.V1
		if e.V1 > h.Max {
			h.Max = e.V1
		}
		slot := len(bounds)
		for i, b := range bounds {
			if e.V1 <= b {
				slot = i
				break
			}
		}
		h.Counts[slot]++
	}
	return h
}

func refAccuracySeries(events []obs.Event) []obs.Point {
	var out []obs.Point
	for _, e := range events {
		if e.Kind != obs.KindAccuracy || e.V1 == 0 {
			continue
		}
		out = append(out, obs.Point{T: e.T, V: float64(e.V2) / float64(e.V1)})
	}
	return out
}

func refOccupancySeries(events []obs.Event) []obs.Point {
	var out []obs.Point
	for _, e := range events {
		if e.Kind != obs.KindScan {
			continue
		}
		out = append(out, obs.Point{T: e.T, V: float64(e.V2)})
	}
	return out
}

func refStreams(events []obs.Event) obs.StreamStats {
	var s obs.StreamStats
	for _, e := range events {
		switch e.Kind {
		case obs.KindStreamStart:
			s.Started++
		case obs.KindStreamHit:
			s.Hits++
		case obs.KindStreamEnd:
			s.Evicted++
			if e.V1 > s.MaxHits {
				s.MaxHits = e.V1
			}
		}
	}
	return s
}

func refQuotaShares(events []obs.Event) []obs.QuotaShare {
	var out []obs.QuotaShare
	for _, e := range events {
		if e.Kind != obs.KindQuotaRebalance {
			continue
		}
		for uint64(len(out)) <= e.Batch {
			out = append(out, obs.QuotaShare{Enclave: uint64(len(out))})
		}
		out[e.Batch] = obs.QuotaShare{Enclave: e.Batch, Quota: e.V1, Resident: e.V2}
	}
	return out
}

func refDFPStopAt(events []obs.Event) uint64 {
	for _, e := range events {
		if e.Kind == obs.KindDFPStop {
			return e.T
		}
	}
	return 0
}

func refBuildReport(events []obs.Event) obs.Report {
	r := obs.Report{
		Span:               refSpan(events),
		Busy:               refBusyCycles(events),
		UtilizationBuckets: refUtilization(events, 20),
		Latency:            refFaultLatencies(events, obs.DefaultLatencyBounds()),
		Accuracy:           refAccuracySeries(events),
		Occupancy:          refOccupancySeries(events),
		Streams:            refStreams(events),
		Quota:              refQuotaShares(events),
		StopCycle:          refDFPStopAt(events),
	}
	for _, e := range events {
		r.Counts[e.Kind]++
	}
	if r.Span > 0 {
		r.Utilization = float64(r.Busy) / float64(r.Span)
	}
	return r
}

// Fuzz input encoding: per event one kind byte, then the timestamp as a
// zigzag varint delta from the previous event's (so timestamps may run
// backwards), then Page+1 (NoPage encodes as 0), Batch, V1 and V2 as
// uvarints. Decoding keeps cycle values within 48 bits, as any real run
// does, and quota enclave indices below 64, so the reference's
// index-sized quota slice stays small.
const (
	fuzzCycleMask  = 1<<48 - 1
	fuzzMaxEnclave = 64
)

func encodeEvents(events []obs.Event) []byte {
	var buf []byte
	var prevT uint64
	for _, e := range events {
		buf = append(buf, byte(e.Kind))
		buf = binary.AppendVarint(buf, int64(e.T-prevT))
		buf = binary.AppendUvarint(buf, uint64(e.Page)+1)
		buf = binary.AppendUvarint(buf, e.Batch)
		buf = binary.AppendUvarint(buf, e.V1)
		buf = binary.AppendUvarint(buf, e.V2)
		prevT = e.T
	}
	return buf
}

func decodeEvents(data []byte) []obs.Event {
	var events []obs.Event
	var prevT uint64
	for len(data) > 0 {
		e := obs.Event{Kind: obs.Kind(int(data[0]) % (len(obs.Kinds()) + 1))}
		data = data[1:]
		delta, n := binary.Varint(data)
		if n <= 0 {
			break
		}
		data = data[n:]
		var f [4]uint64
		for i := range f {
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return events
			}
			f[i], data = v, data[n:]
		}
		e.T = (prevT + uint64(delta)) & fuzzCycleMask
		e.Page = mem.PageID(f[0] - 1)
		e.Batch, e.V1, e.V2 = f[1], f[2]&fuzzCycleMask, f[3]
		if e.Kind == obs.KindQuotaRebalance {
			e.Batch %= fuzzMaxEnclave
		}
		prevT = e.T
		events = append(events, e)
	}
	return events
}

// goldenTimeline records deepsjeng under DFP-stop on a 2048-page EPC —
// one of the differential golden cells — so the fuzzer starts from a
// real run's event mix: every kind the engine emits, channel queueing,
// and a tripped safety valve.
func goldenTimeline(f *testing.F) []obs.Event {
	w, err := workload.ByName("deepsjeng")
	if err != nil {
		f.Fatal(err)
	}
	rec := obs.NewRecorder()
	if _, err := sim.RunShared([]sim.Enclave{{
		Trace:  w.Generate(workload.Ref),
		Pages:  w.ELRangePages(),
		Scheme: sim.DFPStop,
	}}, sim.SharedConfig{EPCPages: 2048, Hook: rec}); err != nil {
		f.Fatal(err)
	}
	return rec.Events()
}

// FuzzSummary feeds random event streams to the Summary fold and to the
// per-metric reference scans; the text and JSON reports must match.
func FuzzSummary(f *testing.F) {
	timeline := goldenTimeline(f)
	golden := encodeEvents(timeline)
	if !slices.Equal(decodeEvents(golden), timeline) {
		f.Fatal("golden timeline does not survive the fuzz encoding")
	}
	f.Add(golden)
	f.Add(encodeEvents([]obs.Event{
		// A DFP-stop at T=0 shadows the later one.
		{T: 0, Kind: obs.KindDFPStop},
		{T: 7, Kind: obs.KindDFPStop},
		// Zero-length, back-to-back, overlapping and out-of-order
		// transfers.
		{T: 10, Kind: obs.KindLoadStart, Page: 1, V1: 10},
		{T: 10, Kind: obs.KindLoadStart, Page: 1, V1: 40},
		{T: 40, Kind: obs.KindLoadStart, Page: 2, V1: 90},
		{T: 60, Kind: obs.KindLoadStart, Page: 3, V1: 120},
		{T: 5, Kind: obs.KindLoadStart, Page: mem.NoPage, V1: 30},
		{T: 30, Kind: obs.KindLoadStart, Page: mem.NoPage, V1: 20},
		{T: 120, Kind: obs.KindLoadComplete, Page: 3, V2: 1},
		// Every remaining kind.
		{T: 3, Kind: obs.KindFaultBegin, Page: 4},
		{T: 70_003, Kind: obs.KindFaultEnd, Page: 4, V1: 70_000},
		{T: 9, Kind: obs.KindFaultEnd, Page: 5, V1: 25_000},
		{T: 11, Kind: obs.KindPreloadQueue, Page: 6, Batch: 1},
		{T: 12, Kind: obs.KindPreloadAbort, Page: 6, Batch: 1, V1: obs.AbortStop},
		{T: 13, Kind: obs.KindEvict, Page: 7, V1: 1},
		{T: 14, Kind: obs.KindSIPNotify, Page: 8, V1: 100},
		{T: 15, Kind: obs.KindScan, V1: 2, V2: 900},
		{T: 15, Kind: obs.KindAccuracy},
		{T: 16, Kind: obs.KindAccuracy, V1: 8, V2: 3},
		{Kind: obs.KindStreamStart, Page: 9, Batch: 1},
		{Kind: obs.KindStreamHit, Page: 10, Batch: 1, V1: 4},
		{Kind: obs.KindStreamEnd, Batch: 1, V1: 1},
		// Quota rebalances with gaps in the enclave indices.
		{T: 20, Kind: obs.KindQuotaRebalance, Batch: 3, V1: 100, V2: 10},
		{T: 21, Kind: obs.KindQuotaRebalance, Batch: 1, V1: 200, V2: 20},
		{T: 22, Kind: obs.KindQuotaRebalance, Batch: 3, V1: 300, V2: 30},
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeEvents(data)
		s := obs.NewSummary()
		for _, e := range events {
			s.Emit(e)
		}
		got, want := s.Report(), refBuildReport(events)
		if g, w := got.String(), want.String(); g != w {
			t.Fatalf("text report diverges over %d events:\nsummary:\n%s\nreference:\n%s", len(events), g, w)
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(gj) != string(wj) {
			t.Fatalf("JSON report diverges over %d events:\nsummary:   %s\nreference: %s", len(events), gj, wj)
		}
	})
}
