package replay

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// The reference parsers below are the lenient readers this package used
// before its decoders became the encoders' exact inverses: encoding/json
// for JSONL, strings.Split and strconv for CSV. They accept lines no
// writer produces (reordered fields, whitespace, leading zeros, sign
// prefixes), so they pin the strict decoders from outside: a strict
// decoder must accept a line exactly when its reference accepts it and
// the encoder renders the reference's event as that same line, and then
// both must give the same event.

// refParseJSONLEvent is the pure encoding/json JSONL line parser.
func refParseJSONLEvent(raw []byte) (obs.Event, error) {
	var je obs.WireEvent
	if err := json.Unmarshal(raw, &je); err != nil {
		return obs.Event{}, fmt.Errorf("malformed event: %w", err)
	}
	return wireToEvent(je.T, je.Kind, je.Page, je.Batch, je.V1, je.V2)
}

// refParseCSVEvent is the strings.Split and strconv CSV row parser.
func refParseCSVEvent(raw []byte) (obs.Event, error) {
	text := string(raw)
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
	k, ok := obs.KindByWire([]byte(kind))
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

// lineCodec is one trace format's strict decoder, its reference parser
// and its encoder.
type lineCodec struct {
	name   string
	decode func([]byte) (obs.Event, error)
	ref    func([]byte) (obs.Event, error)
	encode func([]byte, obs.Event) []byte
}

var (
	jsonlCodec = lineCodec{"jsonl", obs.DecodeJSONL, refParseJSONLEvent, obs.AppendJSONL}
	csvCodec   = lineCodec{"csv", obs.DecodeCSV, refParseCSVEvent, obs.AppendCSV}
)

// mismatch returns how the strict decoder breaks its relation to the
// reference on line, or "" when the relation holds: the decoder accepts
// line exactly when the reference accepts it and the encoder renders
// the reference's event as line, and then both give the same event.
func (c lineCodec) mismatch(line string) string {
	got, gotErr := c.decode([]byte(line))
	want, wantErr := c.ref([]byte(line))
	canonical := wantErr == nil && string(c.encode(nil, want)) == line+"\n"
	switch {
	case (gotErr == nil) != canonical:
		return fmt.Sprintf("%s %q: strict err=%v; reference (%+v, %v), canonical=%v",
			c.name, line, gotErr, want, wantErr, canonical)
	case gotErr == nil && got != want:
		return fmt.Sprintf("%s %q: strict %+v, reference %+v", c.name, line, got, want)
	}
	return ""
}

// parserCorpusJSONL returns lines exercising the decoders' edges: every
// canonical writer line, plus near misses — lines the reference accepts
// but no writer produces, which the strict decoder must reject, and
// lines both reject.
func parserCorpusJSONL() []string {
	var lines []string
	for _, e := range allKindEvents() {
		lines = append(lines, strings.TrimSuffix(string(obs.AppendJSONL(nil, e)), "\n"))
	}
	lines = append(lines,
		`{"t":1,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`,
		`{"t":01,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`,                   // leading zero: invalid JSON
		`{"t":1,"kind":"scan","page":007,"batch":0,"v1":0,"v2":0}`,                  // leading zeros
		`{"t":1,"kind":"scan","page":-1,"batch":0,"v1":0,"v2":0}`,                   // NoPage sentinel
		`{"t":1,"kind":"scan","page":-2,"batch":0,"v1":0,"v2":0}`,                   // negative page: rejected
		`{"t":1,"kind":"nope","page":0,"batch":0,"v1":0,"v2":0}`,                    // unknown kind
		`{"t":1,"kind":"none","page":0,"batch":0,"v1":0,"v2":0}`,                    // never-emitted kind
		`{ "t":1,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`,                   // whitespace
		`{"t":1, "kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`,                   // whitespace
		`{"kind":"scan","t":1,"page":0,"batch":0,"v1":0,"v2":0}`,                    // reordered fields
		`{"t":18446744073709551615,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`, // max uint64
		`{"t":18446744073709551616,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`, // overflow
		`{"t":1,"kind":"scan","page":9223372036854775807,"batch":0,"v1":0,"v2":0}`,  // max int64 page
		`{"t":1,"kind":"scan","page":9223372036854775808,"batch":0,"v1":0,"v2":0}`,  // page overflow
		`{"t":1.5,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`,                  // float
		`{"t":1e3,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`,                  // exponent
		`{"t":+1,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`,                   // sign prefix: invalid JSON
		`{"t":1,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0,"x":1}`,              // extra field
		`{"t":1,"kind":"scan","page":0,"batch":0,"v1":0}`,                           // missing field
		`{"t":1,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0} `,                   // trailing space
		`{"t":1,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}}`,                   // trailing junk
		`{"t":null,"kind":"scan","page":0,"batch":0,"v1":0,"v2":0}`,                 // null
		`{"t":1,"kind":"sca`, // truncated
		`{}`,
		`[]`,
		`x`,
	)
	return lines
}

func parserCorpusCSV() []string {
	var lines []string
	for _, e := range allKindEvents() {
		lines = append(lines, strings.TrimSuffix(string(obs.AppendCSV(nil, e)), "\n"))
	}
	lines = append(lines,
		"1,scan,0,0,0,0",
		"01,scan,0,0,0,0",                   // leading zero: only the reference accepts
		"1,scan,007,0,0,0",                  // leading zeros
		"1,scan,-1,0,0,0",                   // NoPage sentinel
		"1,scan,-01,0,0,0",                  // ParseInt reads "-01" as -1; not canonical
		"1,scan,-2,0,0,0",                   // negative page: both reject
		"1,nope,0,0,0,0",                    // unknown kind
		"1,none,0,0,0,0",                    // never-emitted kind
		"+1,scan,0,0,0,0",                   // ParseUint accepts a sign prefix; not canonical
		"1,scan,+7,0,0,0",                   // ParseInt accepts a sign prefix; not canonical
		"18446744073709551615,scan,0,0,0,0", // max uint64
		"18446744073709551616,scan,0,0,0,0", // overflow
		"1,scan,9223372036854775807,0,0,0",  // max int64 page
		"1,scan,9223372036854775808,0,0,0",  // page overflow
		"1,scan,0,0,0",                      // too few fields
		"1,scan,0,0,0,0,0",                  // too many fields
		"1, scan,0,0,0,0",                   // embedded space
		"1,scan,0,0,0,0 ",                   // trailing space
		",,,,,",                             // all empty
		"1,scan,0,0,0,",                     // empty last field
		"1.5,scan,0,0,0,0",                  // float
		"",
		"x",
	)
	return lines
}

// TestParserDifferentialJSONL: on every corpus line, the strict JSONL
// decoder keeps its relation to the encoding/json reference.
func TestParserDifferentialJSONL(t *testing.T) {
	for _, line := range parserCorpusJSONL() {
		if msg := jsonlCodec.mismatch(line); msg != "" {
			t.Error(msg)
		}
	}
}

func TestParserDifferentialCSV(t *testing.T) {
	for _, line := range parserCorpusCSV() {
		if msg := csvCodec.mismatch(line); msg != "" {
			t.Error(msg)
		}
	}
}

// TestParserDifferentialRandom mutates canonical lines at random byte
// positions and re-checks the relation — the mutations land exactly on
// the boundary between a writer's line and a near miss, where a strict
// decoder bug would hide.
func TestParserDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mutate := func(s string) string {
		if len(s) == 0 {
			return s
		}
		b := []byte(s)
		switch rng.Intn(3) {
		case 0: // flip one byte to a printable char
			b[rng.Intn(len(b))] = byte(' ' + rng.Intn(95))
		case 1: // delete one byte
			i := rng.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		default: // duplicate one byte
			i := rng.Intn(len(b))
			b = append(b[:i+1], b[i:]...)
		}
		return string(b)
	}
	for _, c := range []struct {
		codec  lineCodec
		corpus []string
	}{{jsonlCodec, parserCorpusJSONL()}, {csvCodec, parserCorpusCSV()}} {
		for i := 0; i < 20_000; i++ {
			if msg := c.codec.mismatch(mutate(c.corpus[rng.Intn(len(c.corpus))])); msg != "" {
				t.Fatal(msg)
			}
		}
	}
}
