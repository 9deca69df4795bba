package obs

import "io"

// Recorder is the Hook that keeps raw events: it appends every event to
// an in-memory timeline in emission order, for exports and charts that
// need each event (a report alone needs only a Summary). The engine is
// single-goroutine per run, so the Recorder needs no locking; one
// Recorder must observe one run.
//
// Emission order is causal order, not timestamp order: a completion the
// kernel retires lazily carries the (earlier) cycle it finished at. The
// derived metrics in this package handle that; consumers that need a
// time-sorted view should sort a copy by T.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit implements Hook.
func (r *Recorder) Emit(e Event) { r.events = append(r.events, e) }

// Events returns the recorded timeline (the recorder's own slice; do not
// mutate).
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Reset discards the timeline, keeping the backing array.
func (r *Recorder) Reset() { r.events = r.events[:0] }

// WireEvent is an Event as the trace renders it: the fields in the
// trace's order, the kind by name, mem.NoPage as page -1. Its JSON form
// is one JSONL trace line; the replay diff and the live /events
// endpoint use it.
type WireEvent struct {
	T     uint64 `json:"t"`
	Kind  string `json:"kind"`
	Page  int64  `json:"page"`
	Batch uint64 `json:"batch"`
	V1    uint64 `json:"v1"`
	V2    uint64 `json:"v2"`
}

// Wire returns the event's wire form.
func (e Event) Wire() WireEvent {
	return WireEvent{T: e.T, Kind: e.Kind.String(), Page: pageField(e.Page), Batch: e.Batch, V1: e.V1, V2: e.V2}
}

// WriteJSONL writes a timeline (a Recorder's Events, or a replayed one)
// as JSON Lines: one schema header line, then one event per line with a
// fixed field order, so identical runs produce identical bytes:
//
//	{"schema":"sgxpreload-trace","version":1,"fields":["t","kind","page","batch","v1","v2"]}
//	{"t":123,"kind":"fault_begin","page":42,"batch":0,"v1":0,"v2":0}
func WriteJSONL(w io.Writer, events []Event) error {
	s := NewStreamSink(w, FormatJSONL)
	for _, e := range events {
		s.Emit(e)
	}
	return s.Close()
}

// WriteCSV writes a timeline as CSV — a schema comment line, a column
// header row, then one event per row in WriteJSONL's field order.
func WriteCSV(w io.Writer, events []Event) error {
	s := NewStreamSink(w, FormatCSV)
	for _, e := range events {
		s.Emit(e)
	}
	return s.Close()
}
