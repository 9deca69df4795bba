package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/mem/memtest"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/replay"
	"sgxpreload/internal/rng"
	"sgxpreload/internal/workload"
)

func TestList(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"lbm", "mcf", "deepsjeng", "SIFT", "mixed-blood"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestBaselineRun(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-bench", "cactuBSSN", "-scheme", "baseline"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cycles:", "demand faults:", "cactuBSSN"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDFPCompare(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-bench", "microbenchmark", "-scheme", "dfp", "-compare"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "improvement:") {
		t.Errorf("compare output missing improvement:\n%s", buf.String())
	}
}

func TestSIPRun(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-bench", "deepsjeng", "-scheme", "sip"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "instrumentation points") || !strings.Contains(out, "notify loads:") {
		t.Errorf("SIP output incomplete:\n%s", out)
	}
}

func TestTraceAndMetricsOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	csvPath := filepath.Join(dir, "run.csv")
	reportPath := filepath.Join(dir, "run.txt")
	svgPath := filepath.Join(dir, "run.svg")

	var buf strings.Builder
	err := run([]string{"-bench", "cactuBSSN", "-scheme", "dfp-stop",
		"-trace", tracePath, "-metrics-out", reportPath}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trace:") || !strings.Contains(buf.String(), "metrics:") {
		t.Errorf("summary missing trace/metrics lines:\n%s", buf.String())
	}
	jsonl, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(jsonl), `{"schema":"sgxpreload-trace","version":1`) {
		t.Errorf("trace file missing schema header: %.80s", jsonl)
	}
	if !strings.Contains(string(jsonl), "\n{\"t\":") {
		t.Errorf("trace file does not look like JSONL: %.160s", jsonl)
	}
	report, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "channel busy:") {
		t.Errorf("metrics report incomplete: %.200s", report)
	}

	if err := run([]string{"-bench", "cactuBSSN", "-scheme", "dfp-stop",
		"-trace", csvPath, "-metrics-out", svgPath}, &buf); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "# sgxpreload-trace version=1\nt,kind,page,batch,v1,v2\n") {
		t.Errorf("CSV trace missing header: %.80s", csv)
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "<svg") {
		t.Errorf("metrics SVG missing markup: %.80s", svg)
	}
}

// The event timeline observes only the primary (single-goroutine) run,
// so the exported trace must be byte-identical at any -parallel setting.
func TestTraceDeterministicAcrossParallelism(t *testing.T) {
	dir := t.TempDir()
	export := func(parallel string) []byte {
		path := filepath.Join(dir, "trace-"+parallel+".jsonl")
		var buf strings.Builder
		err := run([]string{"-bench", "cactuBSSN", "-scheme", "dfp", "-compare",
			"-parallel", parallel, "-trace", path}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := export("1")
	eight := export("8")
	if len(one) == 0 || string(one) != string(eight) {
		t.Fatalf("trace differs across -parallel (%d vs %d bytes)", len(one), len(eight))
	}
}

// TestReplayMatchesLiveReport is the acceptance path: -trace then
// -replay must produce a Report byte-identical to the live run's
// -metrics-out.
func TestReplayMatchesLiveReport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	livePath := filepath.Join(dir, "live.txt")
	replayPath := filepath.Join(dir, "replay.txt")

	var buf strings.Builder
	if err := run([]string{"-bench", "cactuBSSN", "-scheme", "dfp-stop",
		"-trace", tracePath, "-metrics-out", livePath}, &buf); err != nil {
		t.Fatal(err)
	}
	var rbuf strings.Builder
	if err := run([]string{"-replay", tracePath, "-metrics-out", replayPath}, &rbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rbuf.String(), "replayed:") {
		t.Errorf("replay output missing summary:\n%s", rbuf.String())
	}
	live, err := os.ReadFile(livePath)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := os.ReadFile(replayPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 || string(live) != string(replayed) {
		t.Fatalf("replayed report differs from live report:\n--- live\n%s--- replayed\n%s", live, replayed)
	}
	// Replay also prints the same report body to stdout.
	if !strings.Contains(rbuf.String(), string(live)) {
		t.Error("replay stdout does not contain the live report body")
	}

	// CSV traces replay through the same flag.
	csvPath := filepath.Join(dir, "run.csv")
	if err := run([]string{"-bench", "cactuBSSN", "-scheme", "dfp-stop", "-trace", csvPath}, &buf); err != nil {
		t.Fatal(err)
	}
	var cbuf strings.Builder
	if err := run([]string{"-replay", csvPath}, &cbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cbuf.String(), string(live)) {
		t.Error("CSV replay report differs from live report")
	}

	// -json mode emits parseable JSON.
	var jbuf strings.Builder
	if err := run([]string{"-replay", tracePath, "-json"}, &jbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(jbuf.String(), `{"counts":`) {
		t.Errorf("replay -json output unexpected: %.120s", jbuf.String())
	}
}

func TestDiffMode(t *testing.T) {
	dir := t.TempDir()
	aPath := filepath.Join(dir, "dfp.jsonl")
	bPath := filepath.Join(dir, "dfp-stop.jsonl")
	var buf strings.Builder
	if err := run([]string{"-bench", "cactuBSSN", "-scheme", "dfp", "-trace", aPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench", "cactuBSSN", "-scheme", "baseline", "-trace", bPath}, &buf); err != nil {
		t.Fatal(err)
	}

	var dbuf strings.Builder
	if err := run([]string{"-diff", aPath, bPath}, &dbuf); err != nil {
		t.Fatal(err)
	}
	out := dbuf.String()
	for _, want := range []string{"diff:", "first divergence:", "event counts", "report metrics"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}

	// Self-diff is identical.
	var sbuf strings.Builder
	if err := run([]string{"-diff", aPath, aPath}, &sbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sbuf.String(), "identical") {
		t.Errorf("self-diff not identical:\n%s", sbuf.String())
	}

	// JSON mode.
	var jbuf strings.Builder
	if err := run([]string{"-diff", "-json", aPath, bPath}, &jbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(jbuf.String(), `{"len_a":`) {
		t.Errorf("diff -json output unexpected: %.120s", jbuf.String())
	}

	// Arity and parse errors.
	if err := run([]string{"-diff", aPath}, &buf); err == nil {
		t.Error("-diff with one path accepted")
	}
	if err := run([]string{"-replay", filepath.Join(dir, "missing.jsonl")}, &buf); err == nil {
		t.Error("-replay of missing file accepted")
	}
}

// TestReplayRejectsHandEditedLines: a recorded trace with one event line
// rewritten into a form no trace writer produces — JSONL fields
// reordered, a CSV field with a leading zero — is refused by -replay and
// -diff with an error naming that line.
func TestReplayRejectsHandEditedLines(t *testing.T) {
	const edited = 6 // 1-based line number, past both formats' headers
	reorder := regexp.MustCompile(`^\{("t":\d+),("kind":"\w+"),`)
	dir := t.TempDir()
	for _, tc := range []struct {
		ext  string
		edit func(string) string
	}{
		{"jsonl", func(line string) string { return reorder.ReplaceAllString(line, `{$2,$1,`) }},
		{"csv", func(line string) string { return "0" + line }},
	} {
		path := filepath.Join(dir, "run."+tc.ext)
		var buf strings.Builder
		if err := run([]string{"-bench", "cactuBSSN", "-scheme", "dfp", "-trace", path}, &buf); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if edit := tc.edit(lines[edited-1]); edit != lines[edited-1] {
			lines[edited-1] = edit
		} else {
			t.Fatalf("%s: edit left line %d unchanged: %s", tc.ext, edited, edit)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"-replay", path}, {"-diff", path, path}} {
			err := run(args, &buf)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", edited)) {
				t.Errorf("%s %v: error %v, want one naming line %d", tc.ext, args, err, edited)
			}
		}
	}
}

func TestServeFlag(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-bench", "cactuBSSN", "-scheme", "dfp", "-serve", "127.0.0.1:0"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "serving metrics:  http://127.0.0.1:") {
		t.Errorf("missing serve address line:\n%s", out)
	}
	if !strings.Contains(out, "cycles:") {
		t.Errorf("served run incomplete:\n%s", out)
	}
	if err := run([]string{"-bench", "cactuBSSN", "-serve", "256.0.0.1:bogus"}, &buf); err == nil {
		t.Error("bogus -serve address accepted")
	}
}

func TestErrors(t *testing.T) {
	tests := [][]string{
		{"-bench", "nope"},
		{"-scheme", "nope"},
		{"-bench", "bwaves", "-scheme", "sip"}, // Fortran: not instrumentable
	}
	for _, args := range tests {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestAblationFlags(t *testing.T) {
	var buf strings.Builder
	args := []string{"-bench", "cactuBSSN", "-scheme", "dfp",
		"-predictor", "stride", "-policy", "lru", "-reclaim"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cycles:") {
		t.Errorf("ablation-flag run incomplete:\n%s", buf.String())
	}
	if err := run([]string{"-predictor", "bogus", "-scheme", "dfp"}, &buf); err == nil {
		t.Error("bogus predictor accepted")
	}
	if err := run([]string{"-policy", "bogus"}, &buf); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestStreamRepeat(t *testing.T) {
	count := func(extra ...string) string {
		var buf strings.Builder
		args := append([]string{"-bench", "cactuBSSN"}, extra...)
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "accesses:") {
				return strings.TrimSpace(strings.TrimPrefix(line, "accesses:"))
			}
		}
		t.Fatalf("no accesses line in:\n%s", buf.String())
		return ""
	}
	one := count()
	three := count("-repeat", "3")
	n1, n3 := 0, 0
	if _, err := fmt.Sscan(one, &n1); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(three, &n3); err != nil {
		t.Fatal(err)
	}
	if n3 != 3*n1 {
		t.Errorf("-repeat 3 ran %d accesses, want 3x%d", n3, n1)
	}

	// Every launch of a co-run repeats too: the fleet table's accesses
	// column of the cactuBSSN enclave triples.
	var buf strings.Builder
	if err := run([]string{"-bench", "cactuBSSN,lbm", "-repeat", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(fmt.Sprintf(`cactuBSSN/0 +\d+ +%d `, n3)).MatchString(buf.String()) {
		t.Errorf("co-run with -repeat 3: cactuBSSN/0 did not run %d accesses:\n%s", n3, buf.String())
	}
}

// TestChunkRepeat: the -repeat stream read through Next and Chunk
// interleaved at random, directly and under a Limit whose cap falls
// inside a later cycle, yields exactly what Next alone yields: the Ref
// trace once per cycle.
func TestChunkRepeat(t *testing.T) {
	w, err := workload.ByName("exchange2")
	if err != nil {
		t.Fatal(err)
	}
	ref := w.Generate(workload.Ref)
	r := rng.New(1)
	for _, n := range []int{1, 3} {
		var want []mem.Access
		for range n {
			want = append(want, ref...)
		}
		memtest.Equal(t, fmt.Sprintf("-repeat %d by Next", n), mem.Collect(repeatStream(w, n)), want)
		memtest.Equal(t, fmt.Sprintf("-repeat %d mixed", n), memtest.PullMixed(t, repeatStream(w, n), r, 200), want)
	}
	// Unbounded: a cap two and a half cycles in.
	limit := uint64(5 * len(ref) / 2)
	want := append(append(append([]mem.Access(nil), ref...), ref...), ref[:len(ref)/2]...)
	memtest.Equal(t, "-repeat 0 under a limit", memtest.PullMixed(t, mem.Limit(repeatStream(w, 0), limit), r, 200), want)
}

func TestStreamFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-repeat", "-1"}, // negative
		{"-repeat", "0"},  // unbounded without -serve
	} {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestMultiBenchSharedEPC(t *testing.T) {
	// -bench a,b is a shared-EPC co-simulation — the one-host fleet with
	// every launch at t=0.
	var buf strings.Builder
	if err := run([]string{"-bench", "lbm,deepsjeng", "-scheme", "dfp-stop"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"lbm/0", "deepsjeng/1", "Fleet: 1 hosts", "2 launches"} {
		if !strings.Contains(out, want) {
			t.Errorf("multi-bench output missing %q:\n%s", want, out)
		}
	}
}

// TestFleetShards: -fleet N -arrival-period 0 is static sharding — every
// launch at t=0, placed round-robin, so enclave i lands on host i mod N.
func TestFleetShards(t *testing.T) {
	mk := func() string {
		var buf strings.Builder
		args := []string{"-bench", "lbm,mcf,deepsjeng,microbenchmark", "-scheme", "dfp",
			"-fleet", "2", "-arrival-period", "0"}
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := mk()
	for _, want := range []string{"Fleet: 2 hosts", "4 launches (0 shed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet output missing %q:\n%s", want, out)
		}
	}
	for i, name := range []string{"lbm/0", "mcf/1", "deepsjeng/2", "microbenchmark/3"} {
		if !regexp.MustCompile(fmt.Sprintf(`(?m)^%d +%s `, i%2, name)).MatchString(out) {
			t.Errorf("%s not on host %d:\n%s", name, i%2, out)
		}
	}
	// Hosts simulate on worker goroutines; the merged table must be
	// deterministic run to run.
	if again := mk(); again != out {
		t.Errorf("static fleet output is not deterministic:\n--- first\n%s--- second\n%s", out, again)
	}
}

func TestFleetFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "lbm,deepsjeng", "-compare"},                       // compare is single-bench
		{"-bench", "lbm,mcf", "-fleet", "2", "-metrics-out", "x.txt"}, // one-host report needs one host
		{"-bench", "lbm,nope"},                                        // unknown member
		{"-bench", "lbm,bwaves", "-scheme", "sip"},                    // uninstrumentable member
	} {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestShardedTrace: -trace on a static N>1-host fleet writes one
// independently replayable trace per EPC domain, deterministically.
func TestShardedTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	args := []string{"-bench", "lbm,mcf,deepsjeng,microbenchmark", "-scheme", "dfp-stop",
		"-fleet", "2", "-arrival-period", "0", "-trace", tracePath}
	var buf strings.Builder
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	var contents []string
	for s := 0; s < 2; s++ {
		path := filepath.Join(dir, fmt.Sprintf("run.host%d.jsonl", s))
		if !strings.Contains(buf.String(), path) {
			t.Errorf("summary does not mention %s:\n%s", path, buf.String())
		}
		events, err := replay.ReadFile(path)
		if err != nil {
			t.Fatalf("host %d trace does not replay: %v", s, err)
		}
		if len(events) == 0 {
			t.Fatalf("host %d trace is empty", s)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		contents = append(contents, string(raw))
	}
	// Each host is its own single-goroutine engine, so per-host traces
	// must be byte-identical run to run at any worker count.
	var again strings.Builder
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("run.host%d.jsonl", s)))
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != contents[s] {
			t.Errorf("host %d trace differs between identical runs", s)
		}
	}
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Errorf("multi-host run should not write the untagged path %s", tracePath)
	}
}

func TestFleetTraceSingleShard(t *testing.T) {
	// A one-host run — a co-run or -fleet 1 — records a normal engine
	// timeline at the flat path.
	for _, extra := range [][]string{nil, {"-fleet", "1"}} {
		dir := t.TempDir()
		tracePath := filepath.Join(dir, "fleet.jsonl")
		var buf strings.Builder
		args := append([]string{"-bench", "lbm,deepsjeng", "-scheme", "dfp-stop", "-trace", tracePath}, extra...)
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "trace:            ") {
			t.Fatalf("%v: no trace line in:\n%s", extra, buf.String())
		}
		if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
			t.Fatalf("%v: fleet trace missing or empty: %v", extra, err)
		}
	}
}

func TestClusterFleet(t *testing.T) {
	mk := func(policy string) string {
		var buf strings.Builder
		args := []string{"-bench", "leela,nab,exchange2,leela", "-fleet", "2",
			"-fleet-policy", policy, "-arrival-period", "500000"}
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, policy := range []string{"round-robin", "least-loaded", "pressure"} {
		out := mk(policy)
		for _, want := range []string{"Fleet: 2 hosts", policy + " placement",
			"fleet-wide fault latency", "leela/0", "p99"} {
			if !strings.Contains(out, want) {
				t.Errorf("-fleet %s output missing %q:\n%s", policy, want, out)
			}
		}
		// Hosts advance on worker goroutines between synchronizations;
		// the report must be deterministic run to run.
		if again := mk(policy); again != out {
			t.Errorf("-fleet %s output is not deterministic", policy)
		}
	}
}

func TestClusterFleetAdmission(t *testing.T) {
	var buf strings.Builder
	args := []string{"-bench", "leela,exchange2,nab", "-fleet", "2",
		"-arrival-period", "1000", "-admit-period", "100000000000"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 shed") || !strings.Contains(out, "shed at the front door: exchange2/1, nab/2") {
		t.Errorf("admission control did not shed the over-rate launches:\n%s", out)
	}
}

func TestClusterFleetTraces(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "cluster.jsonl")
	var buf strings.Builder
	args := []string{"-bench", "leela,exchange2", "-fleet", "2", "-trace", tracePath}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 2; h++ {
		p := filepath.Join(dir, fmt.Sprintf("cluster.host%d.jsonl", h))
		if _, err := os.Stat(p); err != nil {
			t.Errorf("per-host trace missing: %v", err)
		}
	}
}

func TestTaggedTracePath(t *testing.T) {
	for _, tc := range []struct{ path, want string }{
		{"run.jsonl", "run.host1.jsonl"},
		{"run.csv", "run.host1.csv"},
		{"run", "run.host1"},
		{"out.d/run", "out.d/run.host1"},
		{"../run", "../run.host1"},
	} {
		if got := taggedTracePath(tc.path, "host1"); got != tc.want {
			t.Errorf("taggedTracePath(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestTraceClosedOnServeError: when -serve cannot listen, the trace sink
// opened before it is still closed, so the file holds its schema header.
func TestTraceClosedOnServeError(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "p")
	var buf strings.Builder
	args := []string{"-bench", "lbm", "-trace", tracePath, "-serve", "127.0.0.1:99999"}
	if err := run(args, &buf); err == nil {
		t.Fatal("unusable -serve address accepted")
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if want := obs.TraceHeaderJSONL() + "\n"; string(raw) != want {
		t.Fatalf("trace after the serve error = %q, want the schema header %q", raw, want)
	}
}

func TestClusterFleetErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "leela,nab", "-fleet", "2", "-fleet-policy", "nope"}, // unknown policy
		{"-bench", "leela,nab", "-fleet", "2", "-compare"},              // compare is single-bench
		{"-bench", "leela,nab", "-fleet", "2", "-serve", ":0"},          // serve is one-host
		{"-bench", "leela,nab", "-fleet", "2", "-arrival-period", "-1"},
	} {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestTraceSmoke is the end-to-end -trace memory proof, gated behind
// SGXSIM_TRACESMOKE=1 (make trace-smoke sets it): a 10M-access streamed
// run traced to disk must hold peak heap within a fixed ceiling —
// independent of the ~70 MB trace it writes — and the trace must replay
// to the same metrics report in both formats.
func TestTraceSmoke(t *testing.T) {
	if os.Getenv("SGXSIM_TRACESMOKE") != "1" {
		t.Skip("set SGXSIM_TRACESMOKE=1 to run the 10M-access traced streaming smoke")
	}
	dir := t.TempDir()

	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	runtime.GC()
	floor := heap()
	// Same budget as the engine-level stream smoke: 64 MiB of slack is
	// far below a materialized 10M-access timeline (hundreds of MB as
	// obs.Events, ~70 MB encoded), far above the engine plus two 64 KiB
	// sink buffers.
	ceiling := floor + 64<<20

	var peak atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				if h := heap(); h > peak.Load() {
					peak.Store(h)
				}
			}
		}
	}()

	// 170 repeats of cactuBSSN's 60k-access trace = 10.2M accesses.
	traces := []string{filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "run.csv")}
	for _, path := range traces {
		var buf strings.Builder
		if err := run([]string{"-bench", "cactuBSSN", "-scheme", "dfp-stop",
			"-repeat", "170", "-trace", path}, &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "accesses:         10200000") {
			t.Fatalf("smoke run did not reach 10.2M accesses:\n%s", buf.String())
		}
	}
	close(stop)
	wg.Wait()
	if p := peak.Load(); p > ceiling {
		t.Errorf("peak heap %.1f MiB exceeds ceiling %.1f MiB (floor %.1f MiB): "+
			"traced streaming run is not O(1) memory",
			float64(p)/(1<<20), float64(ceiling)/(1<<20), float64(floor)/(1<<20))
	}

	// Both formats replay to byte-identical metrics reports.
	var reports []string
	for i, path := range traces {
		out := filepath.Join(dir, fmt.Sprintf("report%d.txt", i))
		var buf strings.Builder
		if err := run([]string{"-replay", path, "-metrics-out", out}, &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, string(data))
	}
	if len(reports[0]) == 0 || reports[0] != reports[1] {
		t.Error("JSONL and CSV smoke traces replay to different metrics reports")
	}
	t.Logf("10.2M accesses traced twice: peak heap %.1f MiB (floor %.1f MiB)",
		float64(peak.Load())/(1<<20), float64(floor)/(1<<20))
}

const fixtureSpec = "../../internal/workload/spec/testdata/fixture.json"

// TestSpecFleet runs the committed fixture spec through the cluster
// path and checks the compile summary plus per-cohort enclaves appear.
func TestSpecFleet(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-spec", fixtureSpec, "-fleet", "2", "-fleet-policy", "affinity",
		"-scheme", "dfp-stop"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"spec:", "fixture-two-cohorts", "26 launches", "steady.leela/", "diurnal.exchange2/",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("spec fleet output missing %q:\n%s", want, out)
		}
	}
}

// TestSpecRateScale: doubling -rate-scale must grow the launch count.
func TestSpecRateScale(t *testing.T) {
	count := func(scale string) string {
		var buf strings.Builder
		err := run([]string{"-spec", fixtureSpec, "-fleet", "1", "-rate-scale", scale}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		line, _, _ := strings.Cut(buf.String(), "\n")
		return line
	}
	at1, at4 := count("1"), count("4")
	if at1 == at4 {
		t.Errorf("-rate-scale 4 compile summary identical to x1: %s", at4)
	}
	if !strings.Contains(at4, "rate x4") {
		t.Errorf("summary does not echo the rate scale: %s", at4)
	}
}

func TestSpecFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-spec", fixtureSpec}, // no -fleet
		{"-spec", "no/such/spec.json", "-fleet", "2"},
		{"-spec", fixtureSpec, "-fleet", "2", "-rate-scale", "-1"},
		{"-spec", fixtureSpec, "-fleet", "2", "-repeat", "2"},
	} {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Errorf("%v: expected error", args)
		}
	}
}

// TestQuotaFlag covers the -quota surface on a shared-EPC co-run: the
// header tags the policy, explicit global is the default byte-for-byte,
// and bad names are rejected. TestDeterminismMatrix covers the cluster.
func TestQuotaFlag(t *testing.T) {
	shared := func(extra ...string) string {
		var buf strings.Builder
		args := append([]string{"-bench", "lbm,deepsjeng", "-scheme", "dfp-stop"}, extra...)
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if out := shared("-quota", "static"); !strings.Contains(out, "quota static") {
		t.Errorf("shared-EPC header missing the quota tag:\n%s", out)
	}
	if got := shared("-quota", "global"); got != shared() {
		t.Error("-quota global changed the shared-EPC report")
	}

	var buf strings.Builder
	if err := run([]string{"-bench", "lbm", "-quota", "nope"}, &buf); err == nil {
		t.Error("-quota nope succeeded, want error")
	}
}

// TestQuotaServeReport: -serve and -metrics-out work on one-host runs —
// a co-run and -fleet 1 — and under an arbitration policy the derived
// report carries the per-enclave quota partition.
func TestQuotaServeReport(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var buf strings.Builder
	if err := run([]string{"-bench", "lbm,deepsjeng", "-scheme", "dfp-stop",
		"-quota", "prop", "-serve", addr}, &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-bench", "leela,nab", "-fleet", "1", "-serve", "127.0.0.1:0"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "serving metrics:  http://127.0.0.1:") ||
		!strings.Contains(buf.String(), "Fleet: 1 hosts") {
		t.Errorf("-fleet 1 -serve run incomplete:\n%s", buf.String())
	}
	// The server stops with the run; hit the report via the recorded
	// metrics path instead: re-run with -metrics-out and check the
	// quota section lands in the derived report.
	dir := t.TempDir()
	metrics := filepath.Join(dir, "report.txt")
	buf.Reset()
	if err := run([]string{"-bench", "lbm,deepsjeng", "-scheme", "dfp-stop",
		"-quota", "prop", "-metrics-out", metrics}, &buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "EPC quota partition") {
		t.Errorf("metrics report missing the quota section:\n%s", raw)
	}
}
