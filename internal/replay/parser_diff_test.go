package replay

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sgxpreload/internal/obs"
)

// refParseJSONLEvent is the pre-optimization JSONL line parser — pure
// encoding/json, no fast path. The optimized parseJSONLEvent must agree
// with it on every line: same accept/reject decision, same event.
func refParseJSONLEvent(raw []byte) (obs.Event, error) {
	var je obs.WireEvent
	if err := json.Unmarshal(raw, &je); err != nil {
		return obs.Event{}, fmt.Errorf("malformed event: %w", err)
	}
	return wireToEvent(je.T, je.Kind, je.Page, je.Batch, je.V1, je.V2)
}

// refParseCSVEvent is the pre-optimization CSV row parser (pure
// strconv); parseCSVEvent is that code, so the reference calls it
// directly and the differential pins the fast path against it.
func refParseCSVEvent(raw []byte) (obs.Event, error) {
	return parseCSVEvent(string(raw))
}

// parserCorpus returns line fragments exercising both parsers' edges:
// every canonical writer line, plus near-canonical deviations that must
// take the slow path without changing the verdict.
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
		"01,scan,0,0,0,0",                   // leading zero: strconv accepts
		"1,scan,007,0,0,0",                  // leading zeros
		"1,scan,-1,0,0,0",                   // NoPage sentinel
		"1,scan,-01,0,0,0",                  // ParseInt accepts "-01" as -1
		"1,scan,-2,0,0,0",                   // negative page: rejected by wireToEvent
		"1,nope,0,0,0,0",                    // unknown kind
		"1,none,0,0,0,0",                    // never-emitted kind
		"+1,scan,0,0,0,0",                   // ParseUint accepts a sign prefix
		"1,scan,+7,0,0,0",                   // ParseInt accepts a sign prefix
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

// TestParserDifferentialJSONL: on every corpus line, the optimized
// parser and the pure-JSON reference make the same accept/reject
// decision and produce the same event.
func TestParserDifferentialJSONL(t *testing.T) {
	for _, line := range parserCorpusJSONL() {
		got, gotErr := parseJSONLEvent([]byte(line))
		want, wantErr := refParseJSONLEvent([]byte(line))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%q: accept/reject diverges: optimized err=%v, reference err=%v", line, gotErr, wantErr)
			continue
		}
		if gotErr == nil && got != want {
			t.Errorf("%q: value diverges: optimized %+v, reference %+v", line, got, want)
		}
	}
}

func TestParserDifferentialCSV(t *testing.T) {
	for _, line := range parserCorpusCSV() {
		got, gotErr := parseCSVLine([]byte(line))
		want, wantErr := refParseCSVEvent([]byte(line))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%q: accept/reject diverges: optimized err=%v, reference err=%v", line, gotErr, wantErr)
			continue
		}
		if gotErr == nil && got != want {
			t.Errorf("%q: value diverges: optimized %+v, reference %+v", line, got, want)
		}
	}
}

// TestParserDifferentialRandom mutates canonical lines at random byte
// positions and re-checks parser agreement — the mutations land exactly
// on the boundary between "canonical" and "slow path" where a fast
// scanner bug would hide.
func TestParserDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	jsonl := parserCorpusJSONL()
	csv := parserCorpusCSV()
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
	for i := 0; i < 20_000; i++ {
		line := mutate(jsonl[rng.Intn(len(jsonl))])
		got, gotErr := parseJSONLEvent([]byte(line))
		want, wantErr := refParseJSONLEvent([]byte(line))
		if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && got != want) {
			t.Fatalf("jsonl %q: optimized (%+v, %v) vs reference (%+v, %v)", line, got, gotErr, want, wantErr)
		}
	}
	for i := 0; i < 20_000; i++ {
		line := mutate(csv[rng.Intn(len(csv))])
		got, gotErr := parseCSVLine([]byte(line))
		want, wantErr := refParseCSVEvent([]byte(line))
		if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && got != want) {
			t.Fatalf("csv %q: optimized (%+v, %v) vs reference (%+v, %v)", line, got, gotErr, want, wantErr)
		}
	}
}
