// Command bench is the simulator's end-to-end benchmark. It runs four
// workloads (see workloads.go), each round in a fresh child process, one
// child at a time, and reports host-time metrics with their spread over
// the rounds. Every simulated result is checked against its digest.
//
//	bash bench/run.sh                                   # all four workloads, ~100 s of rounds
//	bash bench/run.sh -workload solo-hits -seconds 25   # one workload, ~25 s of rounds
//	bash bench/run.sh -trace 1 -spans spans.json        # traced rounds: per-layer metrics
//	bash bench/run.sh -out new.json
//	bash bench/run.sh -compare bench/baseline.json new.json
//
// The last line of standard output is one JSON object: whether every
// result was correct, the cells attempted and failed, and every metric's
// median with its unit. See README.md for the metrics and workloads.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"sgxpreload/internal/stats"
)

// childEnv marks a child process: it runs one round and prints it.
const childEnv = "SGXBENCH_CHILD"

// roundSize is the size the parent asks its children for; tests lower it.
var roundSize = "full"

// childTimeout bounds one round. A round takes at most a few seconds; a
// child still running after this is killed and its round counts as
// failed, so a hung round cannot hang the benchmark.
const childTimeout = time.Minute

//go:embed golden.json
var goldenJSON []byte

// golden pins every cell's digest at one seed, for the full size.
type golden struct {
	Seed  uint64            `json:"seed"`
	Cells map[string]string `json:"cells"`
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// round is one child's report: its cells, phase times and peak memory,
// the per-layer metrics and spans of a traced round, and the CPU time the
// parent reads from the child's resource usage.
type round struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Cells     []cell             `json:"cells"`
	Setup     float64            `json:"setup_s"`
	Sim       float64            `json:"sim_s"`
	Report    float64            `json:"report_s"`
	Wall      float64            `json:"wall_s"`
	Accesses  uint64             `json:"accesses"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	CPUS      float64            `json:"-"`
	// Scale converts the round's host times to reference seconds (see
	// reference.go).
	Scale   float64 `json:"-"`
	crashed bool
}

func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "")
	seed := fs.Uint64("seed", 1, "")
	trace := fs.Int("trace", 0, "")
	workdir := fs.String("workdir", ".", "")
	sz := fs.String("size", "full", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	s, ok := sizes[*sz]
	if !ok {
		fmt.Fprintf(stderr, "unknown size %q\n", *sz)
		return 2
	}
	rc := playRound(w, *seed, s, *trace == 1, *workdir)
	r := rc.report()
	r.PeakRSSMB = peakRSSMB()
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// playRound runs one round of w in this process.
func playRound(w workloadDef, seed uint64, sz size, traced bool, workdir string) (rc *roundCtx) {
	if traced {
		calibrate()
	}
	rc = &roundCtx{workload: w.name, seed: seed, size: sz, traced: traced, workdir: workdir, log: newSpanLog()}
	defer func() {
		if p := recover(); p != nil {
			rc.cells = append(rc.cells, cell{Name: "round", Runs: 1, Failed: 1, Err: fmt.Sprintf("panic: %v", p)})
		}
	}()
	rc.log.do("round", func() error {
		w.run(rc)
		return nil
	})
	return rc
}

// report is the round as the child sends it to the parent.
func (rc *roundCtx) report() round {
	r := round{
		Workload: rc.workload, Traced: rc.traced, Cells: rc.cells,
		Setup: rc.log.total("setup"), Sim: rc.log.total("simulate"), Report: rc.log.total("report"), Wall: rc.log.total("round"),
	}
	for _, res := range rc.results {
		r.Accesses += res.Accesses
	}
	if rc.traced {
		r.Layers = rc.layerMetrics()
		r.Spans = rc.log.spans
	}
	return r
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload (default: all four, their rounds interleaved)")
	seed := fs.Uint64("seed", 1, "input seed: it rotates the page spaces of shared-quota's and fleet-traced's enclaves; the solo workloads have fixed inputs")
	seconds := fs.Float64("seconds", 100, "run length on the reference machine, turned into a fixed round count per workload (see roundsFor)")
	trace := fs.Int("trace", 0, "1: add a traced round after each round and report the per-layer metrics instead of the end-to-end ones")
	spansPath := fs.String("spans", "", "write the traced rounds' spans to this file (implies -trace 1)")
	out := fs.String("out", "", "write the result document (environment, settings, every metric's spread) to this file")
	cmp := fs.Bool("compare", false, "compare two result documents under BENCHMARK.json's bounds: -compare OLD NEW")
	updateGolden := fs.String("update-golden", "", "run every workload once at the golden seed and write the cell digests to this file")
	workdir := fs.String("workdir", ".bench_build", "directory for the rounds' temporary trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare OLD NEW")
			return 2
		}
		regressed, err := compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	}
	ws := workloads
	if *only != "" {
		w, err := workloadByName(*only)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		ws = []workloadDef{w}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		fmt.Fprintln(stderr, "golden.json:", err)
		return 1
	}
	if *updateGolden != "" {
		return writeGolden(*updateGolden, g.Seed, *workdir, stderr)
	}

	traced := *trace == 1 || *spansPath != ""
	p := plan{seed: *seed, rounds: roundsFor(ws, *seconds, traced), traced: traced, workdir: *workdir}
	runs, err := measure(ws, p)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	useGolden := *seed == g.Seed && roundSize == "full"
	doc := document{Env: currentEnvironment(), Seed: *seed, Traced: traced}
	for _, wr := range runs {
		wr.check(g.Cells, useGolden, stderr)
		doc.Workloads = append(doc.Workloads, wr.doc())
	}
	printTables(doc, stdout)
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *spansPath != "" {
		if err := writeJSON(*spansPath, spansDoc(doc, runs)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, failed := resultLine(doc)
	fmt.Fprintln(stdout, line)
	if failed {
		return 1
	}
	return 0
}

// plan is what to measure.
type plan struct {
	seed    uint64
	rounds  int // per workload
	traced  bool
	workdir string
}

// roundsFor turns a run length into the rounds each workload makes: the
// length over the workloads' nominal round times (doubled when every
// round gets a traced one), at least one. The count depends only on the
// flags, never on how fast the code under test runs, so two commits
// measured with the same flags make the same rounds.
func roundsFor(ws []workloadDef, seconds float64, traced bool) int {
	per := 0.0
	for _, w := range ws {
		per += w.roundS
	}
	if traced {
		per *= 2
	}
	return max(1, int(math.Round(seconds/per)))
}

// workloadRuns collects one workload's rounds.
type workloadRuns struct {
	def               workloadDef
	untraced, traced  []round
	attempted, failed int
}

// measure runs the rounds: the workloads interleave round by round (w1
// w2 w3 w4, w1 w2 ...), one child process at a time, so slow drift of
// the machine spreads over every workload alike.
func measure(ws []workloadDef, p plan) ([]*workloadRuns, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	runs := make([]*workloadRuns, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRuns{def: w}
	}
	ref := newReference()
	ref.sample() // the first sample runs cold and reads slow
	before := ref.sample()
	play := func(name string, traced bool) round {
		r := spawn(exe, name, p.seed, traced, p.workdir)
		after := ref.sample()
		r.Scale = refNominal / math.Sqrt(before*after)
		before = after
		return r
	}
	for r := 0; r < p.rounds; r++ {
		for _, wr := range runs {
			wr.untraced = append(wr.untraced, play(wr.def.name, false))
			if p.traced {
				wr.traced = append(wr.traced, play(wr.def.name, true))
			}
		}
	}
	return runs, nil
}

// spawn runs one round in a child process and adds the child's CPU time
// to its report. A child that fails to report, or runs past
// childTimeout, counts as one failed cell.
func spawn(exe, name string, seed uint64, traced bool, workdir string) round {
	trace := "0"
	if traced {
		trace = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-trace", trace, "-workdir", workdir, "-size", roundSize)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var r round
	if err == nil {
		err = json.Unmarshal(out.Bytes(), &r)
	}
	if err != nil {
		return round{Workload: name, Traced: traced, crashed: true,
			Cells: []cell{{Name: "round", Runs: 1, Failed: 1, Err: fmt.Sprintf("child process: %v", err)}}}
	}
	r.CPUS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return r
}

// peakRSSMB is this process's peak resident memory in MiB, read from the
// kernel's high-water mark for the process image. The child reports it
// itself: the ru_maxrss its parent reads from wait4 also counts the
// parent's own resident set, which the child shares until it execs.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok && len(strings.Fields(v)) > 0 {
			if kb, err := strconv.ParseFloat(strings.Fields(v)[0], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// check counts the attempted and failed cells of every round. A cell run
// fails in its round (an error, a panic, a digest that changed between
// runs), when its digest differs from the same cell's in an earlier
// round, traced or not, or, at the golden seed, from golden.json.
func (wr *workloadRuns) check(goldenCells map[string]string, useGolden bool, stderr io.Writer) {
	first := map[string]string{}
	report := func(r round, c cell, why string) {
		fmt.Fprintf(stderr, "%s (traced %v) cell %s: %s\n", r.Workload, r.Traced, c.Name, why)
	}
	for _, r := range append(append([]round(nil), wr.untraced...), wr.traced...) {
		for _, c := range r.Cells {
			wr.attempted += c.Runs
			failed := c.Failed
			if c.Err != "" {
				report(r, c, c.Err)
			}
			if c.Digest != "" {
				key := wr.def.name + "/" + c.Name
				if d, ok := first[key]; !ok {
					first[key] = c.Digest
				} else if d != c.Digest {
					failed = c.Runs
					report(r, c, fmt.Sprintf("digest %s differs from an earlier round's %s", c.Digest, d))
				}
				if g := goldenCells[key]; useGolden && g != c.Digest {
					failed = c.Runs
					report(r, c, fmt.Sprintf("digest %s differs from golden.json's %q", c.Digest, g))
				}
			}
			wr.failed += failed
		}
	}
}

// doc summarizes the workload's rounds: end-to-end metrics over the
// untraced rounds, per-layer metrics over the traced ones. End-to-end
// host times are in reference seconds; per-layer ones are raw, since
// they divide one round's time among its layers.
func (wr *workloadRuns) doc() workloadDoc {
	d := workloadDoc{Name: wr.def.name, Attempted: wr.attempted, Failed: wr.failed,
		EndToEnd: map[string]summary{}}
	var e2e = map[string][]float64{}
	var scales []float64
	for _, r := range wr.untraced {
		if r.crashed {
			continue
		}
		d.Rounds++
		scales = append(scales, r.Scale)
		e2e["accesses_per_s"] = append(e2e["accesses_per_s"], quotient(float64(r.Accesses), r.Sim*r.Scale))
		e2e["wall_s"] = append(e2e["wall_s"], r.Wall*r.Scale)
		e2e["setup_s"] = append(e2e["setup_s"], r.Setup*r.Scale)
		e2e["peak_rss_mb"] = append(e2e["peak_rss_mb"], r.PeakRSSMB)
		e2e["cpu_s"] = append(e2e["cpu_s"], r.CPUS*r.Scale)
	}
	d.Scale = summarize("ratio", scales)
	for _, m := range endToEnd {
		d.EndToEnd[m.name] = summarize(m.unit, e2e[m.name])
	}
	if len(wr.traced) == 0 {
		return d
	}
	layers := map[string][]float64{}
	var tracedRate []float64
	for _, r := range wr.traced {
		if r.crashed {
			continue
		}
		d.TracedRounds++
		for k, v := range r.Layers {
			layers[k] = append(layers[k], v)
		}
		tracedRate = append(tracedRate, quotient(float64(r.Accesses), r.Sim*r.Scale))
	}
	if len(tracedRate) > 0 && len(e2e["accesses_per_s"]) > 0 {
		untraced := summarize("", e2e["accesses_per_s"]).Median
		layers["trace_overhead_frac"] = []float64{1 - summarize("", tracedRate).Median/untraced}
	}
	d.PerLayer = map[string]summary{}
	for _, m := range perLayer {
		d.PerLayer[m.name] = summarize(m.unit, layers[m.name])
	}
	return d
}

// printTables prints every workload's metrics with their spread.
func printTables(doc document, w io.Writer) {
	for _, wd := range doc.Workloads {
		fmt.Fprintf(w, "%s: %d rounds, %d traced, %d cells attempted, %d failed (seed %d)\n",
			wd.Name, wd.Rounds, wd.TracedRounds, wd.Attempted, wd.Failed, doc.Seed)
		t := &stats.Table{Header: []string{"metric", "unit", "n", "min", "q1", "median", "q3", "max"}}
		add := func(ms []metric, sums map[string]summary) {
			for _, m := range ms {
				s, ok := sums[m.name]
				if !ok || s.N == 0 {
					continue
				}
				t.Add(m.name, m.unit, s.N, g6(s.Min), g6(s.Q1), g6(s.Median), g6(s.Q3), g6(s.Max))
			}
		}
		add(endToEnd, wd.EndToEnd)
		add(perLayer, wd.PerLayer)
		fmt.Fprint(w, t.String())
	}
}

func g6(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// resultLine renders the closing JSON object: end-to-end medians for an
// untraced run, per-layer medians for a traced one. With more than one
// workload, metric names are prefixed by the workload's. It also reports
// whether any cell failed.
func resultLine(doc document) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed := 0, 0
	metrics := map[string]value{}
	for _, wd := range doc.Workloads {
		attempted += wd.Attempted
		failed += wd.Failed
		ms, sums := endToEnd, wd.EndToEnd
		if doc.Traced {
			ms, sums = perLayer, wd.PerLayer
		}
		for _, m := range ms {
			key := m.name
			if len(doc.Workloads) > 1 {
				key = wd.Name + "." + m.name
			}
			metrics[key] = value{sums[m.name].Median, m.unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	if err != nil {
		panic(err) // only finite floats and strings reach here
	}
	return string(b), failed > 0 || attempted == 0
}

// spansDoc is the -spans file: every traced round's spans, with the
// environment they were measured on.
func spansDoc(doc document, runs []*workloadRuns) any {
	type roundSpans struct {
		Workload string `json:"workload"`
		Round    int    `json:"round"`
		Spans    []span `json:"spans"`
	}
	var rs []roundSpans
	for _, wr := range runs {
		for i, r := range wr.traced {
			rs = append(rs, roundSpans{wr.def.name, i, r.Spans})
		}
	}
	return struct {
		Env    environment  `json:"env"`
		Seed   uint64       `json:"seed"`
		Rounds []roundSpans `json:"rounds"`
	}{doc.Env, doc.Seed, rs}
}

// writeGolden runs one untraced round of every workload at the golden
// seed and writes the digests of its cells.
func writeGolden(path string, seed uint64, workdir string, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	g := golden{Seed: seed, Cells: map[string]string{}}
	for _, w := range workloads {
		r := spawn(exe, w.name, seed, false, workdir)
		for _, c := range r.Cells {
			if c.Failed > 0 {
				fmt.Fprintf(stderr, "%s cell %s failed: %s\n", w.name, c.Name, c.Err)
				return 1
			}
			g.Cells[w.name+"/"+c.Name] = c.Digest
		}
	}
	if err := writeJSON(path, g); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %d cell digests to %s\n", len(g.Cells), path)
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
