package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeterminismMatrix is the CLI's determinism and identity harness:
// each row runs sgxsim twice in process and requires the two reports to
// be byte-identical — sequential against 8-way host advancement for every
// fleet run type, and the identity pairs (global quota against no quota
// flag, live metrics against replayed). One row pins the opposite: an
// arbitrating quota policy must change the report.
func TestDeterminismMatrix(t *testing.T) {
	with := func(base []string, extra ...string) []string {
		return append(append([]string(nil), base...), extra...)
	}
	cluster := []string{"-bench", "leela,nab,exchange2,leela", "-fleet", "2", "-arrival-period", "500000"}
	static := []string{"-bench", "lbm,mcf,deepsjeng,microbenchmark", "-fleet", "2", "-arrival-period", "0"}
	specAffinity := []string{"-spec", fixtureSpec, "-fleet", "2", "-fleet-policy", "affinity", "-scheme", "dfp-stop"}
	specLeast := []string{"-spec", fixtureSpec, "-fleet", "3", "-fleet-policy", "least-loaded", "-scheme", "dfp"}
	parallelism := func(args []string) ([]string, []string) {
		return with(args, "-parallel", "1"), with(args, "-parallel", "8")
	}

	type row struct {
		name   string
		a, b   []string
		differ bool     // the pair must differ rather than match
		want   []string // substrings of a's report
	}
	var rows []row
	for _, p := range []string{"round-robin", "least-loaded", "pressure", "affinity"} {
		a, b := parallelism(with(cluster, "-fleet-policy", p))
		rows = append(rows, row{name: "placement/" + p, a: a, b: b,
			want: []string{p + " placement", "fleet-wide fault latency"}})
	}
	a, b := parallelism(specAffinity)
	rows = append(rows, row{name: "spec/affinity", a: a, b: b, want: []string{"fixture-two-cohorts: 26 launches"}})
	a, b = parallelism(specLeast)
	rows = append(rows, row{name: "spec/least-loaded", a: a, b: b, want: []string{"fixture-two-cohorts: 26 launches"}})
	for _, q := range []string{"global", "static", "prop", "adaptive"} {
		a, b := parallelism(with(cluster, "-quota", q))
		rows = append(rows, row{name: "quota/" + q, a: a, b: b})
	}
	rows = append(rows,
		row{name: "quota/global-is-default", a: cluster, b: with(cluster, "-quota", "global"),
			want: []string{"resident", "quota"}},
		row{name: "quota/adaptive-arbitrates", a: cluster, b: with(cluster, "-quota", "adaptive"), differ: true},
	)
	a, b = parallelism(static)
	rows = append(rows, row{name: "static", a: a, b: b, want: []string{"Fleet: 2 hosts", "4 launches"}})

	report := func(t *testing.T, args []string) string {
		t.Helper()
		var buf strings.Builder
		if err := run(args, &buf); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return buf.String()
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ra, rb := report(t, r.a), report(t, r.b)
			if same := ra == rb; same == r.differ {
				t.Errorf("%v vs %v: identical=%v, want %v:\n--- a\n%s--- b\n%s", r.a, r.b, same, !r.differ, ra, rb)
			}
			for _, w := range r.want {
				if !strings.Contains(ra, w) {
					t.Errorf("%v: report missing %q:\n%s", r.a, w, ra)
				}
			}
		})
	}

	// Replay rows: a traced run's -metrics-out equals the report replayed
	// from its trace, and the trace diffs identical against itself — for
	// a solo run and for a one-host (co-run) fleet.
	for name, args := range map[string][]string{
		"replay/solo":   {"-bench", "cactuBSSN", "-scheme", "dfp-stop"},
		"replay/co-run": {"-bench", "lbm,deepsjeng", "-scheme", "dfp-stop", "-quota", "prop"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			trace := filepath.Join(dir, "run.jsonl")
			live, replayed := filepath.Join(dir, "live.txt"), filepath.Join(dir, "replayed.txt")
			report(t, with(args, "-trace", trace, "-metrics-out", live))
			report(t, []string{"-replay", trace, "-metrics-out", replayed})
			lb, err := os.ReadFile(live)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := os.ReadFile(replayed)
			if err != nil {
				t.Fatal(err)
			}
			if len(lb) == 0 || string(lb) != string(rb) {
				t.Errorf("replayed report differs from live:\n--- live\n%s--- replayed\n%s", lb, rb)
			}
			if d := report(t, []string{"-diff", trace, trace}); !strings.Contains(d, "timelines:           identical") {
				t.Errorf("self-diff not identical:\n%s", d)
			}
		})
	}
}
