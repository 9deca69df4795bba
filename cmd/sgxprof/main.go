// Command sgxprof profiles a benchmark the way the paper's offline
// analysis does: it characterizes the page-access pattern (Figure 3),
// classifies every access site (§4.4), and reports the instrumentation
// selection SIP would make (Table 2).
//
// Usage:
//
//	sgxprof -bench deepsjeng
//	sgxprof -bench lbm -pattern    # dump page-vs-time samples (Figure 3 data)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/stats"
	"sgxpreload/internal/trace"
	"sgxpreload/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgxprof:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sgxprof", flag.ContinueOnError)
	var (
		bench     = fs.String("bench", "deepsjeng", "benchmark name")
		epc       = fs.Int("epc", 2048, "EPC capacity in 4KiB pages")
		threshold = fs.Float64("threshold", 0.05, "SIP irregular-access-ratio threshold")
		pattern   = fs.Bool("pattern", false, "dump downsampled page-vs-time samples (Figure 3 data)")
		input     = fs.String("input", "train", "input set to profile: train | ref")
		topSites  = fs.Int("top", 15, "number of sites to list, by irregular ratio")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workload.ByName(*bench)
	if err != nil {
		return err
	}
	in := workload.Train
	if *input == "ref" {
		in = workload.Ref
	}
	tr := w.Generate(in)

	// Pattern characterization (Figure 3 / Table 1).
	p := trace.Analyze(tr)
	fmt.Fprintf(out, "benchmark:        %s (%s input, %d accesses)\n", w.Name, in, p.Accesses)
	fmt.Fprintf(out, "footprint:        %d pages (%.1f MiB)\n", p.Footprint, float64(p.Footprint)*4096/(1<<20))
	fmt.Fprintf(out, "sequential ratio: %.3f\n", p.SequentialRatio)
	fmt.Fprintf(out, "stream ratio:     %.3f\n", p.StreamRatio)
	fmt.Fprintf(out, "mean run length:  %.2f pages\n", p.MeanRunLength)
	fmt.Fprintf(out, "classification:   %s\n", p.Classify(uint64(*epc)))

	if *pattern {
		rec := trace.NewRecorder(uint64(len(tr)/2000 + 1))
		for _, a := range tr {
			rec.Record(a.Page)
		}
		fit := trace.FitLinear(rec.Samples())
		fmt.Fprintf(out, "linear fit:       slope %.3f pages/kaccess, R2 %.3f\n",
			fit.SlopePagesPerKAccess(), fit.R2)
		segs := trace.SegmentedFit(rec.Samples(), 8, 0.05)
		fmt.Fprintf(out, "phases:           %d\n", len(segs))
		for _, s := range segs {
			fmt.Fprintf(out, "  [%5d, %5d)  slope %8.3f pages/kaccess, R2 %.3f\n",
				s.Start, s.End, s.Fit.SlopePagesPerKAccess(), s.Fit.R2)
		}
		fmt.Fprintln(out, "# index page")
		for _, s := range rec.Samples() {
			fmt.Fprintf(out, "%d %d\n", s.Index, s.Page)
		}
		return nil
	}

	// Site classification (§4.4) and selection (Table 2).
	prof, err := sip.ProfileStream(mem.SliceStream(tr), *epc, w.ELRangePages(), dfp.DefaultConfig())
	if err != nil {
		return err
	}
	sel := sip.Select(prof, *threshold, sip.MinSiteAccesses)

	fmt.Fprintf(out, "profiled sites:   %d\n", len(prof.Sites))
	fmt.Fprintf(out, "profiled faults:  %d (%.1f%% of accesses)\n",
		prof.Faults, 100*float64(prof.Faults)/float64(prof.Accesses))
	fmt.Fprintf(out, "instrumented:     %d points at threshold %.0f%%\n", sel.Points(), *threshold*100)

	sites := make([]uint32, 0, len(prof.Sites))
	for s := range prof.Sites {
		sites = append(sites, uint32(s))
	}
	// Most irregular first; ties in ascending site id, so the order does
	// not depend on the profile map's iteration order.
	sort.Slice(sites, func(i, j int) bool {
		ri := prof.Site(workload.SiteOf(sites[i])).IrregularRatio()
		rj := prof.Site(workload.SiteOf(sites[j])).IrregularRatio()
		if ri != rj {
			return ri > rj
		}
		return sites[i] < sites[j]
	})
	if len(sites) > *topSites {
		sites = sites[:*topSites]
	}
	tbl := &stats.Table{Header: []string{"site", "class1", "class2", "class3", "irregular", "instrumented"}}
	for _, s := range sites {
		sp := prof.Site(workload.SiteOf(s))
		tbl.Add(s, sp.Class1, sp.Class2, sp.Class3,
			fmt.Sprintf("%.1f%%", 100*sp.IrregularRatio()),
			sel.Instrumented(workload.SiteOf(s)))
	}
	fmt.Fprintln(out, tbl)
	return nil
}
