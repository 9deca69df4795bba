package obs

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"sgxpreload/internal/mem"
)

// The trace codec. A trace is its format's header lines, then one event
// per line. Each format has one encoder (AppendJSONL, AppendCSV) and,
// beside it, that encoder's exact inverse (DecodeJSONL, DecodeCSV),
// which accepts precisely the lines the encoder writes for an emitted
// kind and returns an error for any other line. The line shape is a
// stable, versioned contract: six fixed-order fields whose only
// variable parts are decimal integers and the kind's wire name. The
// encoders exploit that — strconv.AppendUint for the numbers, a
// per-kind byte table for the constant middle of the line — and write
// output byte-identical to the original fmt.Fprintf writers (pinned by
// the fmt-reference differential test and by the seed golden hashes in
// internal/sim) with zero allocations once the destination buffer has
// grown. The decoders scan the same fragments back in the same order.

// Trace schema contract. Every trace starts with header lines naming
// the schema and version, and a reader requires them byte for byte, so
// it refuses traces it does not understand instead of silently
// misparsing them after a field change.
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

// Format selects a trace encoding.
type Format uint8

const (
	// FormatJSONL writes the JSONL trace format (WriteJSONL's schema).
	FormatJSONL Format = iota
	// FormatCSV writes the CSV trace format (WriteCSV's schema).
	FormatCSV
)

// FormatForPath returns the trace format the CLI conventions assign to
// a path: CSV for a .csv extension, JSONL otherwise.
func FormatForPath(path string) Format {
	if strings.HasSuffix(path, ".csv") {
		return FormatCSV
	}
	return FormatJSONL
}

// Header returns the format's header lines, without newlines: what
// every writer puts first, and what a reader must find first, byte for
// byte.
func (f Format) Header() []string {
	if f == FormatCSV {
		return []string{TraceHeaderCSV(), TraceColumnsCSV}
	}
	return []string{TraceHeaderJSONL()}
}

// encoding returns the format's preamble — its header lines, each
// newline-terminated — and its per-event line encoder. Every trace
// writer, streaming or not, starts from it.
func (f Format) encoding() (preamble string, enc func([]byte, Event) []byte) {
	preamble = strings.Join(f.Header(), "\n") + "\n"
	if f == FormatCSV {
		return preamble, AppendCSV
	}
	return preamble, AppendJSONL
}

// The JSONL line's constant fragments, in its fixed field order, for
// both directions.
const (
	jsonT     = `{"t":`
	jsonKind  = `,"kind":"`
	jsonPage  = `","page":`
	jsonBatch = `,"batch":`
	jsonV1    = `,"v1":`
	jsonV2    = `,"v2":`
	jsonEnd   = `}`
)

// kindJSONL[k] is the constant JSONL fragment between the "t" value and
// the "page" value for kind k: `,"kind":"<name>","page":`.
var kindJSONL = func() [kindCount][]byte {
	var out [kindCount][]byte
	for k := Kind(0); k < kindCount; k++ {
		out[k] = []byte(jsonKind + k.String() + jsonPage)
	}
	return out
}()

// kindCSV[k] is the CSV counterpart: `,<name>,`.
var kindCSV = func() [kindCount][]byte {
	var out [kindCount][]byte
	for k := Kind(0); k < kindCount; k++ {
		out[k] = []byte("," + k.String() + ",")
	}
	return out
}()

// noPageField is the page field's one rule, for the encoders and the
// decoders alike: mem.NoPage, the background write-back sentinel, is
// written as -1 so consumers need no 64-bit sentinel knowledge, and any
// other page as its decimal value.
const noPageField = "-1"

// appendPage renders the page field. A page that is not mem.NoPage goes
// through the int64 conversion the original writer applied, so pages an
// engine never emits (2^63 and up) keep rendering identically.
func appendPage(dst []byte, p mem.PageID) []byte {
	if p == mem.NoPage {
		return append(dst, noPageField...)
	}
	return strconv.AppendInt(dst, int64(p), 10)
}

// pageField is noPageField's rule as a number, for the wire form.
func pageField(p mem.PageID) int64 {
	if p == mem.NoPage {
		return -1
	}
	return int64(p)
}

// AppendJSONL appends one event's JSONL line (with trailing newline) to
// dst and returns the extended slice, byte-identical to the line
// WriteJSONL produces for the same event.
func AppendJSONL(dst []byte, e Event) []byte {
	dst = append(dst, jsonT...)
	dst = strconv.AppendUint(dst, e.T, 10)
	if int(e.Kind) < len(kindJSONL) {
		dst = append(dst, kindJSONL[e.Kind]...)
	} else {
		dst = append(dst, jsonKind+e.Kind.String()+jsonPage...)
	}
	dst = appendPage(dst, e.Page)
	dst = append(dst, jsonBatch...)
	dst = strconv.AppendUint(dst, e.Batch, 10)
	dst = append(dst, jsonV1...)
	dst = strconv.AppendUint(dst, e.V1, 10)
	dst = append(dst, jsonV2...)
	dst = strconv.AppendUint(dst, e.V2, 10)
	return append(dst, jsonEnd+"\n"...)
}

// AppendCSV appends one event's CSV row (with trailing newline) to dst
// and returns the extended slice, byte-identical to the row WriteCSV
// produces for the same event.
func AppendCSV(dst []byte, e Event) []byte {
	dst = strconv.AppendUint(dst, e.T, 10)
	if int(e.Kind) < len(kindCSV) {
		dst = append(dst, kindCSV[e.Kind]...)
	} else {
		dst = append(dst, ","+e.Kind.String()+","...)
	}
	dst = appendPage(dst, e.Page)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, e.Batch, 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, e.V1, 10)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, e.V2, 10)
	return append(dst, '\n')
}

// DecodeJSONL is AppendJSONL's inverse: it decodes one line, without
// its newline, and accepts exactly the lines AppendJSONL writes for an
// emitted kind — the fixed field order, no whitespace, unsigned
// decimals with no sign and no leading zero but in 0 itself, page -1 or
// a value below 2^63, nothing after the closing brace. Any other line
// is an error.
func DecodeJSONL(line []byte) (Event, error) {
	if e, ok := decodeJSONL(line); ok {
		return e, nil
	}
	return Event{}, badLine("JSONL", line)
}

// decodeJSONL is DecodeJSONL with a bare verdict; the one error is built
// in the caller, off the per-line path.
func decodeJSONL(line []byte) (Event, bool) {
	rest, ok := cut(line, jsonT)
	if !ok {
		return Event{}, false
	}
	t, rest, ok := scanUint(rest)
	if !ok {
		return Event{}, false
	}
	if rest, ok = cut(rest, jsonKind); !ok {
		return Event{}, false
	}
	q := bytes.IndexByte(rest, '"')
	if q < 0 {
		return Event{}, false
	}
	kind, ok := KindByWire(rest[:q])
	if !ok {
		return Event{}, false
	}
	if rest, ok = cut(rest[q:], jsonPage); !ok {
		return Event{}, false
	}
	page, rest, ok := scanPage(rest)
	if !ok {
		return Event{}, false
	}
	if rest, ok = cut(rest, jsonBatch); !ok {
		return Event{}, false
	}
	batch, rest, ok := scanUint(rest)
	if !ok {
		return Event{}, false
	}
	if rest, ok = cut(rest, jsonV1); !ok {
		return Event{}, false
	}
	v1, rest, ok := scanUint(rest)
	if !ok {
		return Event{}, false
	}
	if rest, ok = cut(rest, jsonV2); !ok {
		return Event{}, false
	}
	v2, rest, ok := scanUint(rest)
	if !ok || string(rest) != jsonEnd {
		return Event{}, false
	}
	return Event{T: t, Kind: kind, Page: page, Batch: batch, V1: v1, V2: v2}, true
}

// DecodeCSV is AppendCSV's inverse, with DecodeJSONL's rules for the
// fields: it accepts exactly the rows AppendCSV writes for an emitted
// kind, without the newline, and returns an error for any other row.
func DecodeCSV(line []byte) (Event, error) {
	if e, ok := decodeCSV(line); ok {
		return e, nil
	}
	return Event{}, badLine("CSV", line)
}

// decodeCSV is DecodeCSV with a bare verdict.
func decodeCSV(line []byte) (Event, bool) {
	t, rest, ok := scanUint(line)
	if !ok {
		return Event{}, false
	}
	if rest, ok = cut(rest, ","); !ok {
		return Event{}, false
	}
	c := bytes.IndexByte(rest, ',')
	if c < 0 {
		return Event{}, false
	}
	kind, ok := KindByWire(rest[:c])
	if !ok {
		return Event{}, false
	}
	page, rest, ok := scanPage(rest[c+1:])
	if !ok {
		return Event{}, false
	}
	var v [3]uint64
	for i := range v {
		if rest, ok = cut(rest, ","); !ok {
			return Event{}, false
		}
		if v[i], rest, ok = scanUint(rest); !ok {
			return Event{}, false
		}
	}
	if len(rest) != 0 {
		return Event{}, false
	}
	return Event{T: t, Kind: kind, Page: page, Batch: v[0], V1: v[1], V2: v[2]}, true
}

// badLine is the decoders' one error: the line is not one the format's
// encoder writes.
func badLine(format string, line []byte) error {
	return fmt.Errorf("not a %s event line as the trace writer renders it: %.80q", format, line)
}

// cut strips prefix from b, reporting whether b began with it.
func cut(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, false
	}
	return b[len(prefix):], true
}

// scanUint is strconv.AppendUint's inverse on the front of b: a run of
// decimal digits with no sign and no leading zero but in 0 itself, at
// most 2^64-1. It returns the value and the rest of b.
func scanUint(b []byte) (v uint64, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, nil, false
		}
		v = v*10 + d
	}
	if i == 0 || i > 1 && b[0] == '0' {
		return 0, nil, false
	}
	return v, b[i:], true
}

// scanPage is appendPage's inverse on the front of b: noPageField for
// mem.NoPage, or a scanUint value below 2^63.
func scanPage(b []byte) (mem.PageID, []byte, bool) {
	if rest, ok := cut(b, noPageField); ok {
		return mem.NoPage, rest, true
	}
	v, rest, ok := scanUint(b)
	return mem.PageID(v), rest, ok && v <= math.MaxInt64
}
