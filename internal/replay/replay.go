// Package replay loads recorded event timelines back into memory so the
// derived metrics in internal/obs can be recomputed — and two runs can
// be compared — without re-simulating anything.
//
// The reader is the writer's inverse. The one writer is obs.StreamSink,
// which obs.WriteJSONL and obs.WriteCSV run over a slice; a trace must
// start with its format's
// header lines (obs.Format.Header, naming obs.TraceSchema and
// obs.TraceVersion) byte for byte, so a field change can never silently
// misparse an old artifact, and every other non-blank line goes through
// the format's strict decoder (obs.DecodeJSONL, obs.DecodeCSV), which
// accepts exactly the lines the writer renders. Any other line —
// truncated, an unknown kind, or a hand-edited one with reordered
// fields, spaces, leading zeros or a sign — is an error carrying the
// 1-based line number, never a panic. So re-serializing a parsed
// timeline reproduces every non-blank event line of the input byte for
// byte (the round-trip tests and the reader fuzzers pin this). A seekable input
// is read twice, a line count and then the parse, so the parsed
// timeline is allocated once at its exact size; a pipe is read once
// into a slice that grows.
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
	"fmt"
	"io"
	"os"

	"sgxpreload/internal/obs"
)

// maxLineBytes bounds one trace line. Real lines are under 120 bytes;
// the cap keeps a corrupt or hostile file from buffering unbounded data.
const maxLineBytes = 1 << 20

// ReadFile loads a recorded timeline, dispatching on the extension the
// trace writer used (obs.FormatForPath): ".csv" selects CSV, anything
// else JSONL.
func ReadFile(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	read := ReadJSONL
	if obs.FormatForPath(path) == obs.FormatCSV {
		read = ReadCSV
	}
	events, err := read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// ReadJSONL parses a JSONL trace as obs.WriteJSONL writes it: the schema
// header line, then one event per line. It returns an error — never
// panics — on a missing or mismatched header or on any line
// obs.DecodeJSONL rejects.
func ReadJSONL(r io.Reader) ([]obs.Event, error) {
	return readTrace(r, obs.FormatJSONL.Header(), obs.DecodeJSONL)
}

// ReadCSV parses a CSV trace as obs.WriteCSV writes it: the schema
// comment line, the column header row, then one event per row.
func ReadCSV(r io.Reader) ([]obs.Event, error) {
	return readTrace(r, obs.FormatCSV.Header(), obs.DecodeCSV)
}

// readBufBytes is the one read buffer a replay holds: the line count
// and the line scanner both read through it.
const readBufBytes = 64 * 1024

// readTrace is the read loop both formats share. The first lines must
// equal header byte for byte; decode decodes each non-blank line after
// them. When r can seek, the events go into one slice allocated at the
// exact size the line count gives; otherwise the slice grows as lines
// arrive.
func readTrace(r io.Reader, header []string, decode func([]byte) (obs.Event, error)) ([]obs.Event, error) {
	buf := make([]byte, readBufBytes)
	lines, err := countLines(r, buf)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(buf, maxLineBytes)
	for i, want := range header {
		if !sc.Scan() {
			err := sc.Err()
			if err == nil {
				err = fmt.Errorf("missing header %q", want)
			}
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		if got := sc.Bytes(); string(got) != want {
			return nil, fmt.Errorf("line %d: header %.80q, want %q", i+1, got, want)
		}
	}
	var events []obs.Event
	if lines > len(header) {
		events = make([]obs.Event, 0, lines-len(header))
	}
	line := len(header)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		e, err := decode(raw)
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

// countLines counts the lines left in r, reading through buf, and seeks
// r back to where it was. A reader that cannot seek, including an
// *os.File open on a pipe, is left untouched and counts 0 lines. The
// count only sizes the event slice, so a read error ends it early and is
// left for the parse pass to report with its line number.
func countLines(r io.Reader, buf []byte) (int, error) {
	s, ok := r.(io.Seeker)
	if !ok {
		return 0, nil
	}
	start, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, nil
	}
	lines, last := 0, byte('\n')
	for {
		n, err := r.Read(buf)
		lines += bytes.Count(buf[:n], newline)
		if n > 0 {
			last = buf[n-1]
		}
		if err != nil || n == 0 {
			break
		}
	}
	if last != '\n' {
		lines++ // an unterminated last line
	}
	if _, err := s.Seek(start, io.SeekStart); err != nil {
		return 0, fmt.Errorf("rewind after counting lines: %w", err)
	}
	return lines, nil
}

var newline = []byte{'\n'}
