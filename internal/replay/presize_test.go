package replay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"sgxpreload/internal/obs"
)

// noSeek hides a reader's Seek method, so the reader takes the
// append-growth path a pipe takes.
type noSeek struct{ io.Reader }

// writeTraceFile streams events through obs.NewStreamSinkFile into a
// trace file with the given extension and returns its path.
func writeTraceFile(tb testing.TB, ext string, events []obs.Event) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "trace."+ext)
	sink, err := obs.NewStreamSinkFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// sameRead fails t unless two reads of one input gave equal events and
// equal error text.
func sameRead(t *testing.T, name string, got []obs.Event, gotErr error, want []obs.Event, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d events differ from the %d read without seeking", name, len(got), len(want))
	}
}

// TestReadFileExactCapacity checks the sized read against the growth
// read over the same bytes, and bounds the sized slice's spare capacity
// by the lines that hold no event: the headers and the blank lines.
func TestReadFileExactCapacity(t *testing.T) {
	events := allKindEvents()
	for _, f := range []struct {
		ext     string
		headers int
		write   func(io.Writer, []obs.Event) error
		read    func(io.Reader) ([]obs.Event, error)
		corrupt string
	}{
		{"jsonl", 1, obs.WriteJSONL, ReadJSONL, `{"t":1,"kind":"warp_drive","page":0,"batch":0,"v1":0,"v2":0}`},
		{"csv", 2, obs.WriteCSV, ReadCSV, "1,warp_drive,0,0,0,0"},
	} {
		var written bytes.Buffer
		if err := f.write(&written, events); err != nil {
			t.Fatal(err)
		}
		streamed, err := os.ReadFile(writeTraceFile(t, f.ext, events))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed, written.Bytes()) {
			t.Fatalf("%s: stream sink and batch writer disagree", f.ext)
		}
		trace := written.String()
		head := strings.Join(strings.SplitAfter(trace, "\n")[:f.headers], "")
		body := strings.TrimPrefix(trace, head)
		cases := []struct {
			name  string
			data  string
			blank int
		}{
			{"written", trace, 0},
			{"blank lines", head + "\n" + strings.ReplaceAll(body, "\n", "\n\n"), len(events) + 1},
			{"unterminated last line", strings.TrimSuffix(trace, "\n"), 0},
			{"header only", head, 0},
			{"header only, unterminated", strings.TrimSuffix(head, "\n"), 0},
			{"empty", "", 0},
			{"corrupt line", trace + f.corrupt + "\n", 0},
			{"corrupt header", "junk\n" + body, 0},
		}
		for _, c := range cases {
			name := f.ext + "/" + c.name
			path := filepath.Join(t.TempDir(), "trace."+f.ext)
			if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
				t.Fatal(err)
			}
			want, wantErr := f.read(noSeek{strings.NewReader(c.data)})
			fileErr := wantErr
			if wantErr != nil {
				fileErr = fmt.Errorf("%s: %w", path, wantErr)
			}
			got, gotErr := ReadFile(path)
			sameRead(t, name, got, gotErr, want, fileErr)
			if spare := cap(got) - len(got); spare > f.headers+c.blank {
				t.Errorf("%s: %d spare slots, want at most %d headers + %d blank lines",
					name, spare, f.headers, c.blank)
			}

			// The count starts at the reader's offset, not at 0.
			const junk = "not part of the trace\n"
			file, err := os.Create(filepath.Join(t.TempDir(), "offset."+f.ext))
			if err != nil {
				t.Fatal(err)
			}
			_, err = io.WriteString(file, junk+c.data)
			if err == nil {
				_, err = file.Seek(int64(len(junk)), io.SeekStart)
			}
			if err != nil {
				file.Close()
				t.Fatal(err)
			}
			got, gotErr = f.read(file)
			file.Close()
			sameRead(t, name+" past offset 0", got, gotErr, want, wantErr)
		}
	}
}

// rewindFails reports its offset once and then fails every Seek, like
// a reader that can tell its position but not go back to it.
type rewindFails struct {
	*strings.Reader
	seeks int
}

func (r *rewindFails) Seek(offset int64, whence int) (int64, error) {
	if r.seeks++; r.seeks > 1 {
		return 0, errors.New("cannot rewind")
	}
	return r.Reader.Seek(offset, whence)
}

// TestReadRewindFailure: once the line count has consumed the input, a
// failed rewind is an error, not a silently empty timeline.
func TestReadRewindFailure(t *testing.T) {
	var trace strings.Builder
	if err := obs.WriteJSONL(&trace, allKindEvents()); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&rewindFails{Reader: strings.NewReader(trace.String())})
	if err == nil || !strings.Contains(err.Error(), "cannot rewind") {
		t.Fatalf("read %d events, error %v; want the rewind error", len(events), err)
	}
}

// TestReadFileAllocBytes fails if replay returns to growing its event
// slice by append: growth to 100k events allocates about five times the
// final slice, while the sized read allocates the slice once plus the
// read buffer and a few small objects.
func TestReadFileAllocBytes(t *testing.T) {
	const n = 100_000
	limit := uint64(n*unsafe.Sizeof(obs.Event{})) + 256<<10
	events := randomEvents(n)
	for _, ext := range []string{"jsonl", "csv"} {
		path := writeTraceFile(t, ext, events)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadFile(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("%s: read %d events, want %d", ext, len(got), n)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Errorf("%s: replay allocated %d bytes, want at most %d", ext, alloc, limit)
		}
	}
}
