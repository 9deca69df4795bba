// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document so benchmark numbers can be committed and diffed
// across PRs.
//
// Usage:
//
//	go test -run '^$' -bench . ./... | go run ./cmd/benchjson -out BENCH_engine.json
//
// With -baseline FILE, the "results" section of FILE (or, if FILE has no
// results, its top level) is carried into the output as "baseline", so a
// committed BENCH_engine.json keeps the previous run's numbers alongside
// the current ones. A missing baseline file is not an error — the first
// run simply has no baseline.
//
// With -compare FILE, stdin is ignored: the tool diffs FILE's results
// against its own baseline section — both were measured on the same
// machine by consecutive `make bench-json` runs, so the comparison is
// meaningful — prints the per-benchmark ns/op deltas, and exits nonzero
// when any benchmark regressed by more than -max-regress percent
// (default 15).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line. Pointer fields stay null in the JSON when
// the benchmark was not run with -benchmem.
type Result struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

type Document struct {
	Results  []Result `json:"results"`
	Baseline []Result `json:"baseline,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkEPCLookup-8   41293782   28.77 ns/op   0 B/op   0 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so results compare across machines.
// A benchmark that calls b.SetBytes prints MB/s between ns/op and B/op;
// the rate is skipped, so its memory columns are still recorded.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+[0-9.]+ MB/s)?(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

func parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("iterations %q: %w", m[2], err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("ns/op %q: %w", m[3], err)
		}
		res := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[4] != "" {
			b, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, fmt.Errorf("B/op %q: %w", m[4], err)
			}
			res.BytesPerOp = &b
		}
		if m[5] != "" {
			a, err := strconv.ParseFloat(m[5], 64)
			if err != nil {
				return nil, fmt.Errorf("allocs/op %q: %w", m[5], err)
			}
			res.AllocsPerOp = &a
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Stable order regardless of package test order.
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// loadBaseline reads a prior benchjson document (or a bare result list)
// and returns its current results, to be re-emitted as the baseline.
func loadBaseline(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err == nil && len(doc.Results) > 0 {
		return doc.Results, nil
	}
	var bare []Result
	if err := json.Unmarshal(data, &bare); err != nil {
		return nil, fmt.Errorf("%s: not a benchjson document: %w", path, err)
	}
	return bare, nil
}

func run(in io.Reader, outPath, baselinePath string) error {
	results, err := parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	doc := Document{Results: results}
	if baselinePath != "" {
		base, err := loadBaseline(baselinePath)
		if err != nil {
			return err
		}
		doc.Baseline = base
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" || outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}

// compare diffs a benchjson document's results against its baseline
// section and reports per-benchmark ns/op deltas. It returns an error
// when any benchmark is more than maxRegress percent slower than its
// baseline.
func compare(w io.Writer, path string, maxRegress float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not a benchjson document: %w", path, err)
	}
	if len(doc.Baseline) == 0 {
		fmt.Fprintf(w, "%s has no baseline section; nothing to compare\n", path)
		return nil
	}
	base := make(map[string]Result, len(doc.Baseline))
	for _, b := range doc.Baseline {
		base[b.Name] = b
	}
	var regressed []string
	compared := 0
	for _, r := range doc.Results {
		b, ok := base[r.Name]
		if !ok || b.NsPerOp == 0 {
			fmt.Fprintf(w, "%-50s %41s\n", r.Name, "(new, no baseline)")
			continue
		}
		compared++
		delta := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		marker := ""
		if delta > maxRegress {
			marker = "  REGRESSION"
			regressed = append(regressed, r.Name)
		}
		fmt.Fprintf(w, "%-50s %12.1f -> %12.1f ns/op  %+6.1f%%%s\n",
			r.Name, b.NsPerOp, r.NsPerOp, delta, marker)
	}
	fmt.Fprintf(w, "compared %d benchmarks against baseline, %d regressed beyond %.0f%%\n",
		compared, len(regressed), maxRegress)
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%% vs baseline: %s",
			len(regressed), maxRegress, strings.Join(regressed, ", "))
	}
	return nil
}

func main() {
	out := flag.String("out", "-", "output file (default stdout)")
	baseline := flag.String("baseline", "", "prior benchjson file whose results become the baseline section")
	comparePath := flag.String("compare", "", "compare FILE's results against its baseline section instead of reading stdin")
	maxRegress := flag.Float64("max-regress", 15, "with -compare, fail when ns/op regresses by more than this percentage")
	flag.Parse()
	if *comparePath != "" {
		if err := compare(os.Stdout, *comparePath, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, *out, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
