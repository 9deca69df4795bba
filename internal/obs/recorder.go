package obs

import (
	"fmt"
	"io"

	"sgxpreload/internal/mem"
)

// Trace schema contract. Every exported timeline starts with a header
// line naming the schema and version, so a reader can refuse traces it
// does not understand instead of silently misparsing them after a field
// change. internal/replay enforces both values when loading a trace.
const (
	// TraceSchema names the on-disk trace format.
	TraceSchema = "sgxpreload-trace"
	// TraceVersion is the current trace format version. Bump it on any
	// change to the event line shape or field semantics.
	TraceVersion = 1
)

// TraceHeaderJSONL returns the header line (without trailing newline)
// that WriteJSONL emits before the first event.
func TraceHeaderJSONL() string {
	return fmt.Sprintf(`{"schema":%q,"version":%d,"fields":["t","kind","page","batch","v1","v2"]}`,
		TraceSchema, TraceVersion)
}

// TraceHeaderCSV returns the comment line (without trailing newline)
// that WriteCSV emits before the column header.
func TraceHeaderCSV() string {
	return fmt.Sprintf("# %s version=%d", TraceSchema, TraceVersion)
}

// TraceColumnsCSV is the CSV column header row (without trailing
// newline) that follows the schema comment.
const TraceColumnsCSV = "t,kind,page,batch,v1,v2"

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

// pageField renders a PageID for export: mem.NoPage (the background
// write-back sentinel) becomes -1 so consumers need no 64-bit sentinel
// knowledge.
func pageField(p mem.PageID) int64 {
	if p == mem.NoPage {
		return -1
	}
	return int64(p)
}

// WireEvent is an Event as the trace renders it: the fields in the
// trace's order, the kind by name, mem.NoPage as page -1. Its JSON form
// is one JSONL trace line; the trace reader, the replay diff and the
// live /events endpoint all use it.
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

// WriteJSONL writes the timeline as JSON Lines: one schema header line,
// then one event per line with a fixed field order, so identical runs
// produce identical bytes:
//
//	{"schema":"sgxpreload-trace","version":1,"fields":["t","kind","page","batch","v1","v2"]}
//	{"t":123,"kind":"fault_begin","page":42,"batch":0,"v1":0,"v2":0}
func (r *Recorder) WriteJSONL(w io.Writer) error { return WriteJSONL(w, r.events) }

// WriteCSV writes the timeline as CSV — a schema comment line, a column
// header row, then one event per row in the same deterministic field
// order as WriteJSONL.
func (r *Recorder) WriteCSV(w io.Writer) error { return WriteCSV(w, r.events) }

// WriteJSONL writes an event slice in the Recorder's JSONL trace format
// (header line included). internal/replay uses it to re-serialize a
// parsed timeline bit-for-bit.
func WriteJSONL(w io.Writer, events []Event) error {
	return writeEvents(w, events, FormatJSONL)
}

// WriteCSV writes an event slice in the Recorder's CSV trace format
// (schema comment and column header included).
func WriteCSV(w io.Writer, events []Event) error {
	return writeEvents(w, events, FormatCSV)
}

// writeEvents encodes the format's preamble plus the timeline into one
// reusable buffer, flushing to w whenever it fills — the whole export
// performs a handful of large writes regardless of timeline length.
func writeEvents(w io.Writer, events []Event, f Format) error {
	preamble, enc := f.encoding()
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, preamble...)
	for _, e := range events {
		buf = enc(buf, e)
		if len(buf) >= 1<<16-256 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}
