package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the parent path re-executes itself as a child, and runs every round at
// the reduced test size.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	roundSize = "test"
	os.Exit(m.Run())
}

// play runs one in-process round at the test size and fails the test on
// any failed cell.
func play(t *testing.T, w workloadDef, seed uint64, traced bool) *roundCtx {
	t.Helper()
	rc := playRound(w, seed, sizes["test"], traced, t.TempDir())
	if len(rc.cells) == 0 {
		t.Fatalf("%s: round produced no cells", w.name)
	}
	for _, c := range rc.cells {
		if c.Failed > 0 || c.Digest == "" {
			t.Fatalf("%s traced=%v cell %s: %d of %d runs failed: %s", w.name, traced, c.Name, c.Failed, c.Runs, c.Err)
		}
	}
	return rc
}

// Every workload runs without a failed cell, and tracing changes no
// simulated result: a traced round's digests equal the untraced round's
// at two seeds, and the seed reaches the inputs it is documented to
// reach.
func TestWorkloadsCorrectAndTracingInvisible(t *testing.T) {
	bySeed := map[uint64]map[string]string{}
	for _, seed := range []uint64{1, 2} {
		bySeed[seed] = map[string]string{}
		for _, w := range workloads {
			untraced, traced := play(t, w, seed, false), play(t, w, seed, true)
			if len(untraced.cells) != len(traced.cells) {
				t.Fatalf("%s: %d untraced cells, %d traced", w.name, len(untraced.cells), len(traced.cells))
			}
			for i, c := range untraced.cells {
				if d := traced.cells[i].Digest; d != c.Digest {
					t.Errorf("%s seed %d cell %s: traced digest %s, untraced %s", w.name, seed, c.Name, d, c.Digest)
				}
				bySeed[seed][w.name+"/"+c.Name] = c.Digest
			}
		}
	}
	for key, d := range bySeed[1] {
		seeded := strings.HasPrefix(key, "shared-quota/") || strings.HasPrefix(key, "fleet-traced/")
		if same := bySeed[2][key] == d; same == seeded {
			t.Errorf("%s: digest equal at seeds 1 and 2 is %v, want %v", key, same, !seeded)
		}
	}
}

// The stream wrappers count exactly the accesses the engines execute,
// and the hook wrappers exactly the events the sinks encode.
func TestProbeCounts(t *testing.T) {
	for _, name := range []string{"solo-hits", "shared-quota", "fleet-traced"} {
		w, _ := workloadByName(name)
		rc := play(t, w, 1, true)
		var accesses uint64
		for _, r := range rc.results {
			accesses += r.Accesses
		}
		m := rc.layerMetrics()
		if got := uint64(m["workload.pulls"]); got != accesses || accesses == 0 {
			t.Errorf("%s: %d pulls counted, engines executed %d accesses", name, got, accesses)
		}
		if name == "fleet-traced" {
			if got := int(m["obs.events"]); got != rc.fleet.sinkEvents || got == 0 {
				t.Errorf("fleet-traced: hook wrappers counted %d events, sinks encoded %d", got, rc.fleet.sinkEvents)
			}
			if int(m["replay.events"]) != rc.fleet.sinkEvents {
				t.Errorf("fleet-traced: replayed %v events, sinks encoded %d", m["replay.events"], rc.fleet.sinkEvents)
			}
		}
		if name == "solo-hits" && (m["sim.steps"] != float64(accesses) || m["sim.step_ns"] <= 0 || m["workload.pull_ns"] <= 0) {
			t.Errorf("solo-hits: steps %v (want %d), step %v ns, pull %v ns", m["sim.steps"], accesses, m["sim.step_ns"], m["workload.pull_ns"])
		}
	}
}

// closeCounter is a stream that records Close.
type closeCounter struct {
	mem.Stream
	closed int
}

func (c *closeCounter) Close() { c.closed++ }

// An engine abandoned mid-run closes its streams through every wrapper
// the benchmark puts around them.
func TestWrappersForwardClose(t *testing.T) {
	w := mustWorkload("leela")
	rc := &roundCtx{seed: 1, traced: true, log: newSpanLog()}
	cp := rc.newProbes(true)
	inner := &closeCounter{Stream: w.Stream(workload.Ref)}
	defer inner.Stream.(mem.Closer).Close()
	src := cp.stream(mem.Limit(rc.rotate(inner, w.FootprintPages), 1000))
	eng, err := sim.New([]sim.Enclave{{Name: "leela", Stream: src, Pages: w.ELRangePages(), Scheme: sim.DFPStop}},
		sim.SharedConfig{EPCPages: soloEPC, Hook: cp.hook(nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	if inner.closed != 1 {
		t.Fatalf("abandoned engine closed the generator %d times through the wrappers, want 1", inner.closed)
	}

	rs := &repeatStream{w: w, left: 3, cur: w.Stream(workload.Ref)}
	rs.Next()
	rs.Close()
	if _, ok := rs.Next(); ok {
		t.Fatal("repeatStream yields accesses after Close")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the catalogue must match.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// The workloads and metrics BENCHMARK.json lists are exactly the ones
// the benchmark defines and prints, with the same units, directions and
// bounds: both directions, through the parent and its child processes.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark defines %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if e := b.EndToEnd[i]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, e, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark defines %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if e := b.PerLayer[i]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, e, m)
		}
	}

	printed := func(trace string) map[string]string {
		var out, errOut bytes.Buffer
		code := run([]string{"-workload", "shared-quota", "-seed", "3", "-seconds", "1", "-trace", trace, "-workdir", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("-trace %s exited %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("-trace %s: correct %v, %d attempted, %d failed", trace, res.Correct, res.Attempted, res.Failed)
		}
		units := map[string]string{}
		for name, v := range res.Metrics {
			units[name] = v.Unit
		}
		return units
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	for trace, w := range map[string]map[string]string{"0": e2e, "1": layers} {
		got := printed(trace)
		for name, unit := range w {
			if got[name] != unit {
				t.Errorf("-trace %s: %s printed with unit %q, BENCHMARK.json says %q", trace, name, got[name], unit)
			}
		}
		for name := range got {
			if _, ok := w[name]; !ok {
				t.Errorf("-trace %s: printed %s, which BENCHMARK.json does not list", trace, name)
			}
		}
	}
}

// -seconds becomes a round count from the nominal round times alone.
func TestRoundsFor(t *testing.T) {
	sq, _ := workloadByName("shared-quota")
	cases := []struct {
		ws      []workloadDef
		seconds float64
		traced  bool
		want    int
	}{
		{workloads, 100, false, 23},
		{workloads, 100, true, 11},
		{[]workloadDef{sq}, 25, false, 8},
		{[]workloadDef{sq}, 1, false, 1},
	}
	for _, c := range cases {
		if got := roundsFor(c.ws, c.seconds, c.traced); got != c.want {
			t.Errorf("roundsFor(%d workloads, %v s, traced %v) = %d, want %d", len(c.ws), c.seconds, c.traced, got, c.want)
		}
	}
}

// The quartiles are Python's statistics.quantiles(values, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	s := summarize("s", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Fatalf("summary of 1..10 = %+v, want q1 2.75 median 5.5 q3 8.25", s)
	}
	if s := summarize("s", []float64{1, 2, 4}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Fatalf("summary of 1,2,4 = %+v, want q1 1 median 2 q3 4", s)
	}
}

// -compare applies each metric's bound, calls a wide spread unresolved,
// and refuses documents measured on different machines.
func TestCompare(t *testing.T) {
	dir, n := t.TempDir(), 0
	doc := func(wall []float64, cpu string) string {
		n++
		d := document{Env: environment{Go: "go1", CPU: cpu, NProc: 2, GOMAXPROCS: 2}}
		d.Workloads = []workloadDoc{{Name: "solo-hits", EndToEnd: map[string]summary{
			"wall_s":         summarize("s", wall),
			"accesses_per_s": summarize("1/s", []float64{100, 100, 101, 99, 100}),
		}}}
		path := filepath.Join(dir, fmt.Sprintf("doc%d.json", n))
		if err := writeJSON(path, d); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := doc([]float64{1, 1, 1.01, 0.99, 1}, "x")
	cases := []struct {
		new, verdict string
		regressed    bool
	}{
		{doc([]float64{1.02, 1.01, 1.02, 1.01, 1.02}, "x"), "ok", false},
		{doc([]float64{1.3, 1.31, 1.29, 1.3, 1.3}, "x"), "REGRESSED", true},
		{doc([]float64{0.7, 0.71, 0.69, 0.7, 0.7}, "x"), "improved", false},
		{doc([]float64{0.5, 1.5, 1, 2, 0.7}, "x"), "unresolved", false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		regressed, err := compare(base, c.new, &out)
		if err != nil {
			t.Fatal(err)
		}
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.Contains(l, "wall_s") {
				line = l
			}
		}
		if regressed != c.regressed || !strings.HasSuffix(strings.TrimSpace(line), c.verdict) {
			t.Errorf("compare to %s: regressed %v, row %q; want %v and %s", c.new, regressed, line, c.regressed, c.verdict)
		}
	}
	if _, err := compare(base, doc([]float64{1, 1, 1, 1, 1}, "y"), &bytes.Buffer{}); err == nil {
		t.Error("compare accepted documents from different CPUs")
	}
}
