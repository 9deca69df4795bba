package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// outputsGolden pins the SHA-256 of every report's rendered text. The
// reports are the repository's main output and are deterministic, so a
// hash change means an experiment's numbers or layout changed — an
// intentional, reviewed event, never drift. Regenerate with
// `go test ./internal/experiments -run TestStringersRender -update`.
const outputsGolden = "testdata/outputs.golden"

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
	if err := os.WriteFile(outputsGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestChartsRender(t *testing.T) {
	charters := map[string]func() (Charter, error){
		"fig3": func() (Charter, error) { return Figure3(sharedRunner) },
		"fig6": func() (Charter, error) { return Figure6(sharedRunner) },
		"fig7": func() (Charter, error) { return Figure7(sharedRunner) },
		"fig8": func() (Charter, error) { return Figure8(sharedRunner) },
		"fig9": func() (Charter, error) { return Figure9(sharedRunner) },
		"fig10": func() (Charter, error) {
			f, err := Figure10(sharedRunner)
			return f, err
		},
		"fig12": func() (Charter, error) { return Figure12(sharedRunner) },
		"fig13": func() (Charter, error) { return Figure13(sharedRunner) },
	}
	for id, mk := range charters {
		t.Run(id, func(t *testing.T) {
			c, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			charts := c.Charts()
			if len(charts) == 0 {
				t.Fatal("no charts")
			}
			for _, chart := range charts {
				svg := chart.SVG()
				if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>\n") {
					t.Errorf("%s: malformed SVG envelope", chart.Title)
				}
				if !strings.Contains(svg, "Figure") {
					t.Errorf("%s: missing figure title", chart.Title)
				}
				if len(svg) < 500 {
					t.Errorf("%s: suspiciously small SVG (%d bytes)", chart.Title, len(svg))
				}
			}
		})
	}
}

// TestStringersRender checks every report renderer: they feed both the
// CLI and EXPERIMENTS.md, so a panic or empty output is a release
// blocker, and each rendering's hash must match outputsGolden.
func TestStringersRender(t *testing.T) {
	type stringer interface{ String() string }
	runs := map[string]func() (stringer, error){
		"motivation":     func() (stringer, error) { return Motivation(sharedRunner) },
		"fig3":           func() (stringer, error) { return Figure3(sharedRunner) },
		"fig6":           func() (stringer, error) { return Figure6(sharedRunner) },
		"fig7":           func() (stringer, error) { return Figure7(sharedRunner) },
		"fig8":           func() (stringer, error) { return Figure8(sharedRunner) },
		"fig9":           func() (stringer, error) { return Figure9(sharedRunner) },
		"fig10":          func() (stringer, error) { return Figure10(sharedRunner) },
		"fig11":          func() (stringer, error) { return Figure11(sharedRunner) },
		"fig12":          func() (stringer, error) { return Figure12(sharedRunner) },
		"fig13":          func() (stringer, error) { return Figure13(sharedRunner) },
		"table1":         func() (stringer, error) { return Table1(sharedRunner) },
		"table2":         func() (stringer, error) { return Table2(sharedRunner) },
		"summary":        func() (stringer, error) { return Summary(sharedRunner) },
		"epc":            func() (stringer, error) { return EPCSweep(sharedRunner) },
		"predictor":      func() (stringer, error) { return PredictorAblation(sharedRunner) },
		"eviction":       func() (stringer, error) { return EvictionAblation(sharedRunner) },
		"loadcost":       func() (stringer, error) { return CostSensitivity(sharedRunner) },
		"shared":         func() (stringer, error) { return SharedEPC(sharedRunner) },
		"fleet-sharded":  func() (stringer, error) { return ShardedFleet(sharedRunner) },
		"fleet-policies": func() (stringer, error) { return FleetPolicies(sharedRunner) },
		"epc-partition":  func() (stringer, error) { return EPCPartition(sharedRunner) },
		"saturation":     func() (stringer, error) { return Saturation(sharedRunner) },
		"backward":       func() (stringer, error) { return BackwardStreams(sharedRunner) },
		"reclaim":        func() (stringer, error) { return ReclaimAblation(sharedRunner) },
		"eager":          func() (stringer, error) { return EagerSIP(sharedRunner) },
	}
	want := readOutputHashes(t)
	for id, mk := range runs {
		t.Run(id, func(t *testing.T) {
			r, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			out := r.String()
			if len(out) < 40 || !strings.Contains(out, "\n") {
				t.Errorf("report too small:\n%s", out)
			}
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
			if *update {
				want[id] = got
			} else if got != want[id] {
				t.Errorf("output hash %s, want %s from %s (regenerate with -update if intentional):\n%s",
					got, want[id], outputsGolden, out)
			}
		})
	}
	if *update {
		writeOutputHashes(t, want)
	}
}
