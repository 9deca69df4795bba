// Command experiments regenerates every table and figure of the paper's
// evaluation and prints the reports (optionally writing one file per
// experiment).
//
// Usage:
//
//	experiments                 # run everything, print to stdout
//	experiments -only fig8      # one experiment
//	experiments -outdir results # also write results/<id>.txt
//	experiments -parallel 8     # bound the sweep worker pool
//	experiments -progress       # per-cell progress on stderr
//
// Each experiment fans its independent (workload, config) cells out
// across a worker pool (default GOMAXPROCS); results are keyed by cell
// index, so the printed tables and figures are byte-identical at any
// -parallel setting.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sgxpreload/internal/experiments"
)

// experiment names one reproducible artifact of the paper.
type experiment struct {
	id   string
	desc string
	run  func(*experiments.Runner) (fmt.Stringer, error)
}

// wrap adapts a typed experiment runner to the generic signature.
func wrap[T fmt.Stringer](f func(*experiments.Runner) (T, error)) func(*experiments.Runner) (fmt.Stringer, error) {
	return func(r *experiments.Runner) (fmt.Stringer, error) {
		v, err := f(r)
		return v, err
	}
}

func all() []experiment {
	return []experiment{
		{"motivation", "enclave vs regular fault cost; scan slowdown", wrap(experiments.Motivation)},
		{"fig3", "page-access patterns (bwaves, deepsjeng, lbm)", wrap(experiments.Figure3)},
		{"fig6", "DFP vs stream_list length (lbm, bwaves)", wrap(experiments.Figure6)},
		{"fig7", "DFP vs preload distance (7 benchmarks)", wrap(experiments.Figure7)},
		{"fig8", "DFP and DFP-stop improvement per benchmark", wrap(experiments.Figure8)},
		{"fig9", "SIP threshold sweep on deepsjeng", wrap(experiments.Figure9)},
		{"fig10", "SIP improvement per benchmark", wrap(experiments.Figure10)},
		{"fig11", "real-world applications (SIFT, MSER)", wrap(experiments.Figure11)},
		{"fig12", "SIP vs DFP vs hybrid", wrap(experiments.Figure12)},
		{"fig13", "mixed-blood hybrid study", wrap(experiments.Figure13)},
		{"table1", "benchmark classification", wrap(experiments.Table1)},
		{"table2", "SIP instrumentation points", wrap(experiments.Table2)},
		{"summary", "every benchmark x scheme", wrap(experiments.Summary)},
		{"ablation-epc", "DFP-stop vs EPC size", wrap(experiments.EPCSweep)},
		{"ablation-predictor", "alternative fault-history predictors", wrap(experiments.PredictorAblation)},
		{"ablation-eviction", "EPC eviction policies", wrap(experiments.EvictionAblation)},
		{"ablation-loadcost", "ELDU cost sensitivity", wrap(experiments.CostSensitivity)},
		{"ablation-shared", "multi-enclave EPC sharing (paper §5.6)", wrap(experiments.SharedEPC)},
		{"fleet-sharded", "fleet over independent EPC domains (t=0 round-robin fleet)", wrap(experiments.ShardedFleet)},
		{"fleet-policies", "cluster placement policies vs p99 fault latency (fleet layer)", wrap(experiments.FleetPolicies)},
		{"epc-partition", "per-enclave EPC quota policies on a hog-skewed co-run", wrap(experiments.EPCPartition)},
		{"saturation", "arrival-spec rate sweep to the admission/latency knee", wrap(experiments.Saturation)},
		{"ablation-backward", "descending-stream recognition", wrap(experiments.BackwardStreams)},
		{"ablation-reclaim", "sync vs background (ksgxswapd) EWB reclaim", wrap(experiments.ReclaimAblation)},
		{"ablation-eager", "oracle early-notification headroom (Figure 4)", wrap(experiments.EagerSIP)},
		{"trace", "event-timeline trace report (deepsjeng, DFP-stop)", wrap(experiments.Trace)},
		{"replay", "trace replay round-trip proof + DFP vs DFP-stop diff", wrap(experiments.Replay)},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		only      = fs.String("only", "", "comma-separated experiment ids (default: all)")
		outdir    = fs.String("outdir", "", "also write one report file per experiment")
		epc       = fs.Int("epc", 2048, "EPC capacity in 4KiB pages")
		threshold = fs.Float64("threshold", 0.05, "SIP instrumentation threshold")
		svg       = fs.Bool("svg", true, "with -outdir, also render figures as SVG")
		parallel  = fs.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS; output is identical at any setting)")
		progress  = fs.Bool("progress", false, "report per-cell sweep progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	params := experiments.Default()
	params.EPCPages = *epc
	params.Threshold = *threshold
	runner := experiments.NewRunner(params)
	runner.SetParallelism(*parallel)
	if *progress {
		runner.SetProgress(func(done, total int, label string) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s\n", done, total, label)
		})
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}

	ran := 0
	for _, e := range all() {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		ran++
		fmt.Fprintf(out, "== %s: %s ==\n", e.id, e.desc)
		res, err := e.run(runner)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		report := res.String()
		fmt.Fprintln(out, report)
		if *outdir != "" {
			path := filepath.Join(*outdir, e.id+".txt")
			if err := os.WriteFile(path, []byte(report+"\n"), 0o644); err != nil {
				return err
			}
			if ch, ok := res.(experiments.Charter); ok && *svg {
				for ci, chart := range ch.Charts() {
					name := e.id
					if ci > 0 {
						name = fmt.Sprintf("%s-%d", e.id, ci)
					}
					path := filepath.Join(*outdir, name+".svg")
					if err := os.WriteFile(path, []byte(chart.SVG()), 0o644); err != nil {
						return err
					}
				}
			}
		}
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q; known ids: %s", *only, ids())
	}
	return nil
}

func ids() string {
	var out []string
	for _, e := range all() {
		out = append(out, e.id)
	}
	return strings.Join(out, ", ")
}
