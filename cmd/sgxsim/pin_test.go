package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// outputsGolden pins the SHA-256 of the bytes sgxsim writes — stdout,
// every -trace file (JSONL and CSV, one per host on fleets) and the
// -metrics-out file (text report or .svg timeline) — for one run of each
// kind the CLI launches. Regenerate with
// `go test ./cmd/sgxsim -run TestOutputPins -update`.
const outputsGolden = "testdata/outputs.golden"

// pinRuns are the pinned runs by id. Paths are relative to a scratch
// directory; stdout is hashed with that directory replaced by "$DIR".
var pinRuns = map[string][]string{
	"solo-dfp":      {"-bench", "lbm", "-scheme", "dfp", "-trace", "run.jsonl", "-metrics-out", "report.txt"},
	"solo-dfp-stop": {"-bench", "cactuBSSN", "-scheme", "dfp-stop", "-trace", "run.csv", "-metrics-out", "timeline.svg"},
	"solo-sip":      {"-bench", "deepsjeng", "-scheme", "sip", "-trace", "run.jsonl", "-metrics-out", "report.txt"},
	"solo-hybrid":   {"-bench", "mcf", "-scheme", "hybrid", "-metrics-out", "report.txt"},
	"compare":       {"-bench", "deepsjeng", "-scheme", "dfp", "-compare", "-trace", "run.jsonl", "-metrics-out", "report.txt"},
	"corun-adaptive": {"-bench", "mcf,deepsjeng,mcf", "-scheme", "hybrid", "-quota", "adaptive",
		"-trace", "run.jsonl", "-metrics-out", "report.txt"},
	"fleet-trace": {"-bench", "lbm,mcf,deepsjeng,microbenchmark", "-scheme", "dfp", "-fleet", "2",
		"-arrival-period", "0", "-trace", "run.csv"},
	"spec-fleet": {"-spec", fixtureSpec, "-fleet", "2"},
}

// readOutputHashes parses outputsGolden's "id hash" lines; a missing
// file reads as empty so -update can create it.
func readOutputHashes(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(outputsGolden)
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
			t.Fatalf("%s: malformed line %q", outputsGolden, line)
		}
		hashes[id] = sum
	}
	return hashes
}

// writeOutputHashes rewrites outputsGolden in sorted id order.
func writeOutputHashes(t *testing.T, hashes map[string]string) {
	t.Helper()
	ids := make([]string, 0, len(hashes))
	for id := range hashes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%s %s\n", id, hashes[id])
	}
	if err := os.MkdirAll(filepath.Dir(outputsGolden), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outputsGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runOutputs runs sgxsim with args inside a fresh directory and returns
// every output by name: "stdout", then each file the run wrote.
func runOutputs(t *testing.T, args []string) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	abs := make([]string, len(args))
	for i, a := range args {
		abs[i] = a
		if i > 0 && (args[i-1] == "-trace" || args[i-1] == "-metrics-out") {
			abs[i] = filepath.Join(dir, a)
		}
	}
	var stdout strings.Builder
	if err := run(abs, &stdout); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	outs := map[string][]byte{"stdout": []byte(strings.ReplaceAll(stdout.String(), dir, "$DIR"))}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%v: %s is empty", args, e.Name())
		}
		outs[e.Name()] = data
	}
	return outs
}

// TestOutputPins checks each pinned run's stdout and output files
// against their hashes, and that no pin names an output no run writes.
func TestOutputPins(t *testing.T) {
	want := readOutputHashes(t)
	seen := map[string]bool{}
	for id, args := range pinRuns {
		for name, data := range runOutputs(t, args) {
			key := id + "/" + name
			seen[key] = true
			got := fmt.Sprintf("%x", sha256.Sum256(data))
			if *update {
				want[key] = got
			} else if got != want[key] {
				t.Errorf("%s (%v): hash %s, want %s from %s (regenerate with -update if intentional)",
					key, args, got, want[key], outputsGolden)
			}
		}
	}
	for key := range want {
		if !seen[key] {
			if *update {
				delete(want, key)
			} else {
				t.Errorf("%s pins %s, which no run writes", outputsGolden, key)
			}
		}
	}
	if *update {
		writeOutputHashes(t, want)
	}
}
