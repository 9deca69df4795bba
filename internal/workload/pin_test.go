package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"sgxpreload/internal/mem"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tracesGolden pins the SHA-256 of every registered workload's trace
// under both inputs. Generators are deterministic, so a hash change
// means a generator's output changed — an intentional, reviewed event,
// never a side effect of making one faster. Regenerate with
// `go test ./internal/workload -run TestTracePins -update`.
const tracesGolden = "testdata/traces.golden"

// traceHash is the SHA-256 of tr with each access encoded as its site
// (4 bytes), page and compute (8 bytes each, little-endian) and write
// flag (1 byte).
func traceHash(tr []mem.Access) string {
	h := sha256.New()
	var rec [21]byte
	for _, a := range tr {
		binary.LittleEndian.PutUint32(rec[0:], uint32(a.Site))
		binary.LittleEndian.PutUint64(rec[4:], uint64(a.Page))
		binary.LittleEndian.PutUint64(rec[12:], a.Compute)
		rec[20] = 0
		if a.Write {
			rec[20] = 1
		}
		h.Write(rec[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// readTraceHashes parses tracesGolden's "workload/input hash" lines; a
// missing file reads as empty so -update can create it.
func readTraceHashes(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(tracesGolden)
	if os.IsNotExist(err) && *update {
		return map[string]string{}
	}
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	hashes := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", tracesGolden, line)
		}
		hashes[id] = sum
	}
	return hashes
}

// writeTraceHashes rewrites tracesGolden, sorted by id.
func writeTraceHashes(t *testing.T, hashes map[string]string) {
	t.Helper()
	ids := make([]string, 0, len(hashes))
	for id := range hashes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "%s %s\n", id, hashes[id])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracesGolden, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTracePins checks every registered workload's Generate output,
// under both inputs, against its pinned hash, and that no pin names a
// workload that no longer exists.
func TestTracePins(t *testing.T) {
	want := readTraceHashes(t)
	seen := map[string]bool{}
	for _, w := range All() {
		for _, in := range []Input{Train, Ref} {
			id := w.Name + "/" + in.String()
			seen[id] = true
			got := traceHash(w.Generate(in))
			if *update {
				want[id] = got
			} else if got != want[id] {
				t.Errorf("%s: trace hash %s, want %s from %s (regenerate with -update if intentional)",
					id, got, want[id], tracesGolden)
			}
		}
	}
	for id := range want {
		if !seen[id] {
			if *update {
				delete(want, id)
			} else {
				t.Errorf("%s pins %s, which no workload generates", tracesGolden, id)
			}
		}
	}
	if *update {
		writeTraceHashes(t, want)
	}
}
