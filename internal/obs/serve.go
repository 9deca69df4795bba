package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// The live metrics surface. NewHandler exposes a Ring over HTTP so a
// long simulation can be watched while it runs: the engine emits into
// the Ring from the run goroutine while any number of scrapers read
// consistent snapshots. All three endpoints return JSON:
//
//	GET /metrics         run-so-far gauges: event totals per kind,
//	                     retained/dropped window counts, progress cycle
//	GET /events?since=N  retained events with sequence numbers > N
//	                     (omit since, or since=0, for the whole window)
//	GET /report          the full derived Report over the retained window
//
// /report is computed from the retained window only: once the ring has
// dropped events, window-spanning metrics (utilization buckets, latency
// histogram) cover the recent past, not the whole run — the response
// flags that with "window_complete": false. For whole-run metrics,
// record a trace and replay it (internal/replay).

// liveMetrics is the /metrics payload.
type liveMetrics struct {
	Schema         string            `json:"schema"`
	Version        int               `json:"version"`
	EventsTotal    uint64            `json:"events_total"`
	EventsRetained int               `json:"events_retained"`
	EventsDropped  uint64            `json:"events_dropped"`
	LastT          uint64            `json:"last_t"`
	Counts         map[string]uint64 `json:"counts"`
}

// wireEvent is an event's wire form preceded by its ring sequence
// number.
type wireEvent struct {
	Seq uint64 `json:"seq"`
	WireEvent
}

// eventsPayload is the /events response.
type eventsPayload struct {
	Since  uint64      `json:"since"`
	First  uint64      `json:"first"`
	Next   uint64      `json:"next"`
	Events []wireEvent `json:"events"`
}

// reportPayload is the /report response.
type reportPayload struct {
	EventsTotal    uint64 `json:"events_total"`
	WindowComplete bool   `json:"window_complete"`
	Report         Report `json:"report"`
}

// NewHandler returns an http.Handler serving ring's live metrics on
// /metrics, /events, and /report. The handler is safe for concurrent use
// while the engine is emitting into the ring.
func NewHandler(ring *Ring) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		s := ring.Stats()
		writeJSON(w, liveMetrics{
			Schema:         TraceSchema,
			Version:        TraceVersion,
			EventsTotal:    s.Total,
			EventsRetained: s.Retained,
			EventsDropped:  s.Dropped,
			LastT:          s.LastT,
			Counts:         s.Counts,
		})
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		var since uint64
		if s := req.URL.Query().Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "since must be a non-negative integer", http.StatusBadRequest)
				return
			}
			since = v
		}
		events, first := ring.Since(since)
		payload := eventsPayload{Since: since, First: first, Next: since, Events: make([]wireEvent, len(events))}
		for i, e := range events {
			seq := first + uint64(i)
			payload.Events[i] = wireEvent{Seq: seq, WireEvent: e.Wire()}
			payload.Next = seq
		}
		writeJSON(w, payload)
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, req *http.Request) {
		events, first := ring.Snapshot()
		var total uint64
		if len(events) > 0 {
			total = first - 1 + uint64(len(events))
		}
		writeJSON(w, reportPayload{
			EventsTotal:    total,
			WindowComplete: first <= 1,
			Report:         BuildReport(events),
		})
	})
	return mux
}

// writeJSON marshals v onto the response with the JSON content type.
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}
