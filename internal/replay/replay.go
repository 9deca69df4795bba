// Package replay loads recorded event timelines back into memory so the
// derived metrics in internal/obs can be recomputed — and two runs can
// be compared — without re-simulating anything.
//
// The writers are obs.Recorder.WriteJSONL and WriteCSV; both start their
// output with a schema/version header (obs.TraceSchema, obs.TraceVersion)
// and this package refuses traces whose header is missing or names a
// different schema or version, so a field change can never silently
// misparse an old artifact. Parsing is strict per line — an unknown event
// kind, a malformed record, or a truncated line is an error carrying the
// 1-based line number, never a panic — and lossless: re-serializing a
// parsed timeline with obs.WriteJSONL reproduces the input byte for byte
// (the round-trip property test and the parser fuzzer pin both).
//
// On top of loading, Compare diffs two timelines: the first divergent
// event, per-kind count deltas, and the deltas of every derived Report
// field, with deterministic text and JSON renderings. This is the
// paper's run-by-run evaluation style (DFP versus DFP-stop, Figures
// 8–13) applied to recorded artifacts instead of live runs.
package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// maxLineBytes bounds one trace line. Real lines are under 120 bytes;
// the cap keeps a corrupt or hostile file from buffering unbounded data.
const maxLineBytes = 1 << 20

// header is the JSONL schema line written by obs.Recorder.WriteJSONL.
type header struct {
	Schema  string   `json:"schema"`
	Version int      `json:"version"`
	Fields  []string `json:"fields"`
}

// ReadFile loads a recorded timeline, dispatching on the extension the
// trace writer used (obs.FormatForPath): ".csv" selects CSV, anything
// else JSONL.
func ReadFile(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []obs.Event
	if obs.FormatForPath(path) == obs.FormatCSV {
		events, err = ReadCSV(f)
	} else {
		events, err = ReadJSONL(f)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// ReadJSONL parses a JSONL trace as written by obs.Recorder.WriteJSONL:
// the schema header line, then one event per line. It returns an error —
// never panics — on a missing or mismatched header, an unknown kind, or
// any malformed line.
func ReadJSONL(r io.Reader) ([]obs.Event, error) {
	sc := newLineScanner(r)
	if !sc.Scan() {
		return nil, scanErr(sc, fmt.Errorf("empty trace: missing %s header", obs.TraceSchema))
	}
	if err := parseJSONLHeader(sc.Bytes()); err != nil {
		return nil, err
	}
	var events []obs.Event
	line := 1
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		e, err := parseJSONLEvent(raw)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %w", line+1, err)
	}
	return events, nil
}

// parseJSONLHeader validates the schema line.
func parseJSONLHeader(raw []byte) error {
	var h header
	if err := json.Unmarshal(raw, &h); err != nil || h.Schema == "" {
		return fmt.Errorf("line 1: not a %s header (trace written before schema versioning?): %.80s",
			obs.TraceSchema, raw)
	}
	if h.Schema != obs.TraceSchema {
		return fmt.Errorf("line 1: schema %q, want %q", h.Schema, obs.TraceSchema)
	}
	if h.Version != obs.TraceVersion {
		return fmt.Errorf("line 1: trace version %d, this reader understands version %d",
			h.Version, obs.TraceVersion)
	}
	return nil
}

// parseJSONLEvent parses one event line. The hot path is a byte-level
// scanner for the canonical shape WriteJSONL emits — fixed field order,
// no whitespace, plain decimal numbers — which covers every line of a
// writer-produced trace without touching encoding/json. Anything the
// fast scanner does not recognize exactly (reordered fields, spaces,
// leading zeros, out-of-range numbers, unknown kinds) falls back to the
// original json.Unmarshal path, so acceptance and error behavior are
// identical to the pure-JSON parser (the differential test and fuzzer
// pin this).
func parseJSONLEvent(raw []byte) (obs.Event, error) {
	if e, ok := parseJSONLFast(raw); ok {
		return e, nil
	}
	var je obs.WireEvent
	if err := json.Unmarshal(raw, &je); err != nil {
		return obs.Event{}, fmt.Errorf("malformed event: %w", err)
	}
	return wireToEvent(je.T, je.Kind, je.Page, je.Batch, je.V1, je.V2)
}

// Canonical JSONL line fragments, in the writer's fixed field order.
var (
	jsonPrefixT    = []byte(`{"t":`)
	jsonFieldKind  = []byte(`,"kind":"`)
	jsonFieldPage  = []byte(`","page":`)
	jsonFieldBatch = []byte(`,"batch":`)
	jsonFieldV1    = []byte(`,"v1":`)
	jsonFieldV2    = []byte(`,"v2":`)
)

// cutPrefix strips prefix from b, reporting whether it was present.
func cutPrefix(b, prefix []byte) ([]byte, bool) {
	if !bytes.HasPrefix(b, prefix) {
		return nil, false
	}
	return b[len(prefix):], true
}

// scanDigits parses a run of leading decimal digits, returning the
// value and the rest. ok is false when there is no digit or the value
// overflows uint64 — both send the caller to the slow path, which
// reproduces the exact error the old parser raised.
func scanDigits(b []byte) (v uint64, rest []byte, ok bool) {
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		d := uint64(b[i] - '0')
		if v > (1<<64-1-d)/10 {
			return 0, nil, false
		}
		v = v*10 + d
		i++
	}
	if i == 0 {
		return 0, nil, false
	}
	return v, b[i:], true
}

// scanJSONUint is scanDigits restricted to the JSON number grammar: a
// leading zero is only valid for the number 0 itself ("007" must reach
// the slow path, which rejects it like any JSON decoder).
func scanJSONUint(b []byte) (uint64, []byte, bool) {
	if len(b) >= 2 && b[0] == '0' && b[1] >= '0' && b[1] <= '9' {
		return 0, nil, false
	}
	return scanDigits(b)
}

// scanJSONPage parses the page field: -1 (the NoPage sentinel) or a
// non-negative int64. Any other shape — including valid-JSON negatives
// below -1, which the old parser rejected with "negative page" — defers
// to the slow path.
func scanJSONPage(b []byte) (int64, []byte, bool) {
	if len(b) >= 2 && b[0] == '-' && b[1] == '1' && (len(b) == 2 || b[2] < '0' || b[2] > '9') {
		return -1, b[2:], true
	}
	v, rest, ok := scanJSONUint(b)
	if !ok || v > 1<<63-1 {
		return 0, nil, false
	}
	return int64(v), rest, true
}

// parseJSONLFast scans one canonical writer-emitted line. ok reports
// whether the line matched the canonical shape; a false return says
// nothing about validity — the caller re-parses with encoding/json.
func parseJSONLFast(raw []byte) (obs.Event, bool) {
	rest, ok := cutPrefix(raw, jsonPrefixT)
	if !ok {
		return obs.Event{}, false
	}
	t, rest, ok := scanJSONUint(rest)
	if !ok {
		return obs.Event{}, false
	}
	if rest, ok = cutPrefix(rest, jsonFieldKind); !ok {
		return obs.Event{}, false
	}
	q := bytes.IndexByte(rest, '"')
	if q < 0 {
		return obs.Event{}, false
	}
	kind, ok := obs.KindByWire(rest[:q])
	if !ok {
		return obs.Event{}, false
	}
	if rest, ok = cutPrefix(rest[q:], jsonFieldPage); !ok {
		return obs.Event{}, false
	}
	page, rest, ok := scanJSONPage(rest)
	if !ok {
		return obs.Event{}, false
	}
	if rest, ok = cutPrefix(rest, jsonFieldBatch); !ok {
		return obs.Event{}, false
	}
	batch, rest, ok := scanJSONUint(rest)
	if !ok {
		return obs.Event{}, false
	}
	if rest, ok = cutPrefix(rest, jsonFieldV1); !ok {
		return obs.Event{}, false
	}
	v1, rest, ok := scanJSONUint(rest)
	if !ok {
		return obs.Event{}, false
	}
	if rest, ok = cutPrefix(rest, jsonFieldV2); !ok {
		return obs.Event{}, false
	}
	v2, rest, ok := scanJSONUint(rest)
	if !ok || len(rest) != 1 || rest[0] != '}' {
		return obs.Event{}, false
	}
	p := mem.PageID(page)
	if page == -1 {
		p = mem.NoPage
	}
	return obs.Event{T: t, Kind: kind, Page: p, Batch: batch, V1: v1, V2: v2}, true
}

// ReadCSV parses a CSV trace as written by obs.Recorder.WriteCSV: the
// schema comment line, the column header row, then one event per row.
func ReadCSV(r io.Reader) ([]obs.Event, error) {
	sc := newLineScanner(r)
	if !sc.Scan() {
		return nil, scanErr(sc, fmt.Errorf("empty trace: missing %q header", obs.TraceHeaderCSV()))
	}
	if got := sc.Text(); got != obs.TraceHeaderCSV() {
		return nil, fmt.Errorf("line 1: header %.80q, want %q (trace written before schema versioning?)",
			got, obs.TraceHeaderCSV())
	}
	if !sc.Scan() {
		return nil, scanErr(sc, fmt.Errorf("truncated trace: missing column header"))
	}
	if got, want := sc.Text(), obs.TraceColumnsCSV; got != want {
		return nil, fmt.Errorf("line 2: column header %.80q, want %q", got, want)
	}
	var events []obs.Event
	line := 2
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		e, err := parseCSVLine(raw)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %w", line+1, err)
	}
	return events, nil
}

// parseCSVLine parses one CSV row: a byte-level fast path for canonical
// writer output, falling back to the strconv-based parser (identical
// acceptance — strconv tolerates leading zeros and sign prefixes the
// fast path defers on) for anything else.
func parseCSVLine(raw []byte) (obs.Event, error) {
	if e, ok := parseCSVFast(raw); ok {
		return e, nil
	}
	return parseCSVEvent(string(raw))
}

// parseCSVFast scans a canonical CSV row. Like parseJSONLFast, a false
// return only means "not canonical"; the slow path decides validity.
func parseCSVFast(raw []byte) (obs.Event, bool) {
	var f [6][]byte
	n, start := 0, 0
	for i := 0; i <= len(raw); i++ {
		if i == len(raw) || raw[i] == ',' {
			if n == 6 {
				return obs.Event{}, false
			}
			f[n] = raw[start:i]
			n++
			start = i + 1
		}
	}
	if n != 6 {
		return obs.Event{}, false
	}
	// strconv.ParseUint accepts leading zeros, so plain scanDigits (full
	// consumption) matches its acceptance for unsigned fields.
	full := func(b []byte) (uint64, bool) {
		v, rest, ok := scanDigits(b)
		return v, ok && len(rest) == 0
	}
	t, ok := full(f[0])
	if !ok {
		return obs.Event{}, false
	}
	kind, ok := obs.KindByWire(f[1])
	if !ok {
		return obs.Event{}, false
	}
	var page int64
	if pb := f[2]; len(pb) == 2 && pb[0] == '-' && pb[1] == '1' {
		page = -1
	} else {
		v, ok := full(pb)
		if !ok || v > 1<<63-1 {
			return obs.Event{}, false
		}
		page = int64(v)
	}
	batch, ok := full(f[3])
	if !ok {
		return obs.Event{}, false
	}
	v1, ok := full(f[4])
	if !ok {
		return obs.Event{}, false
	}
	v2, ok := full(f[5])
	if !ok {
		return obs.Event{}, false
	}
	p := mem.PageID(page)
	if page == -1 {
		p = mem.NoPage
	}
	return obs.Event{T: t, Kind: kind, Page: p, Batch: batch, V1: v1, V2: v2}, true
}

// parseCSVEvent parses one CSV row (the strconv slow path).
func parseCSVEvent(text string) (obs.Event, error) {
	fields := strings.Split(text, ",")
	if len(fields) != 6 {
		return obs.Event{}, fmt.Errorf("malformed row: %d fields, want 6", len(fields))
	}
	t, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return obs.Event{}, fmt.Errorf("bad t %q", fields[0])
	}
	page, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return obs.Event{}, fmt.Errorf("bad page %q", fields[2])
	}
	var rest [3]uint64
	for i, name := range [...]string{"batch", "v1", "v2"} {
		v, err := strconv.ParseUint(fields[3+i], 10, 64)
		if err != nil {
			return obs.Event{}, fmt.Errorf("bad %s %q", name, fields[3+i])
		}
		rest[i] = v
	}
	return wireToEvent(t, fields[1], page, rest[0], rest[1], rest[2])
}

// wireToEvent validates and converts one decoded record. page -1 is the
// writer's rendering of mem.NoPage; other negatives are corruption.
func wireToEvent(t uint64, kind string, page int64, batch, v1, v2 uint64) (obs.Event, error) {
	k, ok := obs.KindByName(kind)
	if !ok {
		return obs.Event{}, fmt.Errorf("unknown event kind %q", kind)
	}
	p := mem.PageID(page)
	switch {
	case page == -1:
		p = mem.NoPage
	case page < 0:
		return obs.Event{}, fmt.Errorf("negative page %d", page)
	}
	return obs.Event{T: t, Kind: k, Page: p, Batch: batch, V1: v1, V2: v2}, nil
}

// newLineScanner returns a scanner with the trace line-length cap.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	return sc
}

// scanErr prefers the scanner's I/O error over the fallback.
func scanErr(sc *bufio.Scanner, fallback error) error {
	if err := sc.Err(); err != nil {
		return err
	}
	return fallback
}
