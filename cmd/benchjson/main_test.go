package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: sgxpreload/internal/epc
BenchmarkEPCLookup-8    41293782    28.77 ns/op    0 B/op    0 allocs/op
BenchmarkEPCPresent-8   100000000    6.460 ns/op
PASS
ok   sgxpreload/internal/epc 3.1s
BenchmarkHandleFault-8   2359641   507.5 ns/op   16 B/op   0 allocs/op
BenchmarkTraceParse/csv-8   295   4043115 ns/op   199.54 MB/s   487563 B/op   7 allocs/op
`

func TestParseBenchOutput(t *testing.T) {
	results, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(results))
	}
	// Sorted by name, GOMAXPROCS suffix stripped.
	if results[0].Name != "BenchmarkEPCLookup" || results[1].Name != "BenchmarkEPCPresent" ||
		results[2].Name != "BenchmarkHandleFault" {
		t.Fatalf("names = %q, %q, %q", results[0].Name, results[1].Name, results[2].Name)
	}
	if results[0].NsPerOp != 28.77 || results[0].Iterations != 41293782 {
		t.Fatalf("EPCLookup = %+v", results[0])
	}
	if results[0].AllocsPerOp == nil || *results[0].AllocsPerOp != 0 {
		t.Fatalf("EPCLookup allocs = %v, want 0", results[0].AllocsPerOp)
	}
	if results[1].BytesPerOp != nil || results[1].AllocsPerOp != nil {
		t.Fatal("EPCPresent without -benchmem should have null memory fields")
	}
	if results[2].NsPerOp != 507.5 {
		t.Fatalf("HandleFault ns/op = %v", results[2].NsPerOp)
	}
	// A b.SetBytes benchmark's MB/s column does not hide its memory.
	if r := results[3]; r.NsPerOp != 4043115 || r.BytesPerOp == nil || *r.BytesPerOp != 487563 ||
		r.AllocsPerOp == nil || *r.AllocsPerOp != 7 {
		t.Fatalf("TraceParse/csv = %+v", r)
	}
}

func TestParseIgnoresNonBenchLines(t *testing.T) {
	results, err := parse(strings.NewReader("PASS\nok pkg 1s\n--- random noise ---\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("parsed %d results from noise", len(results))
	}
}

func TestRunCarriesBaselineForward(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")

	// First run: no baseline file exists yet; that must not be an error.
	if err := run(strings.NewReader(sample), out, filepath.Join(dir, "missing.json")); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(first), `"baseline"`) {
		t.Fatal("first run emitted a baseline section from a missing file")
	}

	// Second run against updated numbers: prior results become baseline.
	updated := strings.ReplaceAll(sample, "28.77", "14.02")
	if err := run(strings.NewReader(updated), out, out); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(second)
	if !strings.Contains(s, `"baseline"`) {
		t.Fatal("second run lost the baseline section")
	}
	if !strings.Contains(s, "14.02") || !strings.Contains(s, "28.77") {
		t.Fatalf("output missing current or baseline ns/op:\n%s", s)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(strings.NewReader("no benchmarks here\n"), "-", ""); err == nil {
		t.Fatal("run accepted input with no benchmark lines")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	doc := `{
  "results": [
    {"name": "BenchmarkFast", "iterations": 100, "ns_per_op": 95},
    {"name": "BenchmarkNew", "iterations": 100, "ns_per_op": 50},
    {"name": "BenchmarkSlow", "iterations": 100, "ns_per_op": 200}
  ],
  "baseline": [
    {"name": "BenchmarkFast", "iterations": 100, "ns_per_op": 100},
    {"name": "BenchmarkSlow", "iterations": 100, "ns_per_op": 100}
  ]
}
`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := compare(&out, path, 15)
	if err == nil {
		t.Fatal("compare accepted a 100% regression with a 15% budget")
	}
	if !strings.Contains(err.Error(), "BenchmarkSlow") {
		t.Errorf("error does not name the regressed benchmark: %v", err)
	}
	text := out.String()
	for _, want := range []string{"REGRESSION", "(new, no baseline)", "-5.0%", "+100.0%"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output missing %q:\n%s", want, text)
		}
	}
	// A generous budget accepts the same document.
	out.Reset()
	if err := compare(&out, path, 150); err != nil {
		t.Errorf("compare with 150%% budget failed: %v", err)
	}
}

func TestCompareWithoutBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	doc := `{"results": [{"name": "BenchmarkX", "iterations": 1, "ns_per_op": 1}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := compare(&out, path, 15); err != nil {
		t.Fatalf("compare without baseline should succeed, got %v", err)
	}
	if !strings.Contains(out.String(), "no baseline") {
		t.Errorf("missing no-baseline note:\n%s", out.String())
	}
}
