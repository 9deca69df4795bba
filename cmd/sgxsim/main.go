// Command sgxsim runs one benchmark under one preloading scheme and
// prints the run's metrics. It can also replay and diff recorded traces
// without re-simulating, and serve live metrics over HTTP during a run.
//
// Usage:
//
//	sgxsim -bench lbm -scheme dfp
//	sgxsim -bench deepsjeng -scheme sip -threshold 0.05
//	sgxsim -bench mixed-blood -scheme hybrid -epc 2048 -loadlength 4
//	sgxsim -bench lbm -scheme dfp -compare -parallel 2
//	sgxsim -bench deepsjeng -scheme dfp-stop -trace run.jsonl
//	sgxsim -replay run.jsonl                    # re-derive metrics, no simulation
//	sgxsim -diff a.jsonl b.jsonl                # first divergence + metric deltas
//	sgxsim -bench lbm -scheme dfp -serve :8080  # live /metrics, /events, /report
//	sgxsim -bench lbm -scheme dfp -stream       # O(1)-memory streamed run
//	sgxsim -bench lbm -stream -repeat 0 -serve :8080  # unbounded, watch live
//	sgxsim -bench lbm,deepsjeng -scheme dfp     # shared-EPC co-run
//	sgxsim -stream -bench lbm,deepsjeng -scheme dfp-stop  # streamed co-run
//	sgxsim -bench lbm,mcf,deepsjeng,x264 -fleet 2 -arrival-period 0  # static: 2 EPC domains
//	sgxsim -bench lbm,leela,nab,leela -fleet 2 -fleet-policy pressure  # cluster: timed arrivals
//	sgxsim -spec workload.json -fleet 4             # cluster: spec-compiled arrival cohorts
//	sgxsim -spec workload.json -fleet 4 -rate-scale 2  # same spec at twice the load
//	sgxsim -list
//
// See OBSERVABILITY.md for the trace schema and the replay/diff/serve
// workflows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"sgxpreload/internal/core"
	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/pool"
	"sgxpreload/internal/replay"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/stats"
	"sgxpreload/internal/workload"
	"sgxpreload/internal/workload/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgxsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sgxsim", flag.ContinueOnError)
	var (
		bench      = fs.String("bench", "microbenchmark", "benchmark name, or a comma-separated list for a shared-EPC co-run: a one-host fleet with every launch at t=0 (-list to enumerate)")
		fleetHosts = fs.Int("fleet", 0, "simulate a cluster of this many SGX hosts on one shared clock: the -bench list arrives over time (one launch per -arrival-period; 0 launches all at t=0, static round-robin sharding) and is placed by -fleet-policy")
		specPath   = fs.String("spec", "", "with -fleet, compile this JSON workload spec (cohorts with arrival processes; see WORKLOADS.md) into the cluster's arrival stream instead of the -bench list")
		rateScale  = fs.Float64("rate-scale", 1, "with -spec, multiply every cohort's arrival rate (the saturation knob)")
		fleetPol   = fs.String("fleet-policy", "round-robin", "with -fleet, the placement policy: round-robin | least-loaded | pressure | affinity")
		arrPeriod  = fs.Int("arrival-period", 1_000_000, "with -fleet, cycles between enclave launches at the fleet front door (0 = every launch at t=0: static sharding)")
		admPeriod  = fs.Int("admit-period", 0, "with -fleet, token-bucket admission: cycles per admitted launch (0 = admit everything)")
		admBurst   = fs.Int("admit-burst", 1, "with -fleet and -admit-period, how many launches may be admitted back-to-back")
		scheme     = fs.String("scheme", "baseline", "baseline | dfp | dfp-stop | sip | hybrid")
		epcPages   = fs.Int("epc", 2048, "EPC capacity in 4KiB pages")
		listLen    = fs.Int("streamlist", 30, "DFP stream_list length")
		loadLength = fs.Int("loadlength", 4, "DFP preload distance (pages per prediction)")
		threshold  = fs.Float64("threshold", 0.05, "SIP irregular-access-ratio threshold")
		predictor  = fs.String("predictor", "multistream", "fault-history strategy: multistream | stride | markov | nextn")
		policy     = fs.String("policy", "clock", "EPC eviction: clock | fifo | lru | random")
		quotaName  = fs.String("quota", "global", "per-enclave EPC quota policy: global | static | prop | adaptive (global = no quotas; see DESIGN.md)")
		reclaim    = fs.Bool("reclaim", false, "enable the ksgxswapd-style background reclaimer")
		streamMode = fs.Bool("stream", false, "pull accesses from the workload generator on demand instead of materializing the trace (O(1) memory)")
		repeat     = fs.Int("repeat", 1, "with -stream, replay the workload's trace this many times back-to-back (0 = run until interrupted; pair with -serve)")
		compare    = fs.Bool("compare", false, "also run the baseline and report the improvement")
		tracePath  = fs.String("trace", "", "write the run's event timeline (JSONL; a .csv extension selects CSV)")
		metricsOut = fs.String("metrics-out", "", "write derived metrics (text report; a .svg extension renders the timeline chart)")
		parallel   = fs.Int("parallel", 0, "worker pool for -compare runs and fleet host advancement (0 = GOMAXPROCS; output is identical at any setting)")
		progress   = fs.Bool("progress", false, "report each completed run on stderr")
		replayPath = fs.String("replay", "", "replay a recorded trace (JSONL, or CSV for .csv) instead of simulating")
		diffMode   = fs.Bool("diff", false, "diff two recorded traces given as positional args: -diff a.jsonl b.jsonl")
		serveAddr  = fs.String("serve", "", "serve live metrics over HTTP (/metrics, /events, /report) on this address during the run")
		jsonOut    = fs.Bool("json", false, "with -replay or -diff, emit JSON instead of text")
		list       = fs.Bool("list", false, "list benchmarks and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diffMode {
		return runDiff(fs.Args(), *jsonOut, out)
	}
	if *replayPath != "" {
		return runReplay(*replayPath, *metricsOut, *jsonOut, out)
	}
	if *list {
		for _, name := range workload.Names() {
			w, _ := workload.ByName(name)
			fmt.Fprintf(out, "%-16s %-38s %s, %d pages\n",
				name, w.Category, w.Language, w.FootprintPages)
		}
		return nil
	}

	if *repeat < 0 {
		return fmt.Errorf("-repeat must be >= 0, got %d", *repeat)
	}
	if *repeat != 1 && !*streamMode {
		return fmt.Errorf("-repeat needs -stream (materialized runs always replay once)")
	}
	if *repeat == 0 && *serveAddr == "" {
		return fmt.Errorf("-repeat 0 runs forever; pair it with -serve to watch the run")
	}
	sch, err := sim.SchemeByName(strings.ToLower(*scheme))
	if err != nil {
		return err
	}

	d := dfp.DefaultConfig()
	d.StreamListLen = *listLen
	d.LoadLength = *loadLength

	pol, err := epc.PolicyByName(strings.ToLower(*policy))
	if err != nil {
		return err
	}
	quota, err := arbiter.ByName(strings.ToLower(*quotaName))
	if err != nil {
		return err
	}

	if *specPath != "" && *fleetHosts <= 0 {
		return fmt.Errorf("-spec compiles a cluster arrival stream; pair it with -fleet N")
	}

	// Every multi-enclave run is a fleet: -fleet N places the -bench list
	// (or a compiled -spec) onto N hosts as a timed arrival stream, and a
	// plain -bench a,b co-run is the one-host fleet with every launch at
	// t = 0 — the shared-EPC engine, reached through the same tail.
	// Streamed or materialized exactly like the single-bench path.
	if names := strings.Split(*bench, ","); *fleetHosts > 0 || len(names) > 1 {
		if *compare {
			return fmt.Errorf("-compare applies to single-benchmark runs")
		}
		if *arrPeriod < 0 || *admPeriod < 0 {
			return fmt.Errorf("-arrival-period and -admit-period must be >= 0")
		}
		pl, err := fleet.PolicyByName(strings.ToLower(*fleetPol))
		if err != nil {
			return err
		}
		o := clusterOpts{
			hosts:         *fleetHosts,
			placement:     pl,
			arrivalPeriod: uint64(*arrPeriod),
			admitPeriod:   uint64(*admPeriod),
			admitBurst:    *admBurst,
			scheme:        sch,
			dfp:           d,
			predictor:     core.Kind(strings.ToLower(*predictor)),
			policy:        pol,
			quota:         quota,
			epcPages:      *epcPages,
			stream:        *streamMode,
			repeat:        *repeat,
			reclaim:       *reclaim,
			threshold:     *threshold,
			tracePath:     *tracePath,
			metricsOut:    *metricsOut,
			serveAddr:     *serveAddr,
			workers:       *parallel,
		}
		if *fleetHosts <= 0 {
			o.hosts, o.arrivalPeriod = 1, 0
		}
		if (o.metricsOut != "" || o.serveAddr != "") && o.hosts > 1 {
			return fmt.Errorf("-metrics-out/-serve record one host's timeline; use a co-run or -fleet 1 (-trace writes per-host files at any host count)")
		}
		if *specPath != "" {
			return runSpecFleet(*specPath, *rateScale, o, out)
		}
		return runClusterFleet(names, o, out)
	}

	w, err := workload.ByName(*bench)
	if err != nil {
		return err
	}

	enc := sim.Enclave{
		Name:              w.Name,
		Pages:             w.ELRangePages(),
		Scheme:            sch,
		DFP:               d,
		Predictor:         core.Kind(strings.ToLower(*predictor)),
		BackgroundReclaim: *reclaim,
	}
	if sch.UsesSIP() {
		sel, err := buildSelection(w, *epcPages, d, *threshold)
		if err != nil {
			return err
		}
		enc.Selection = sel
		fmt.Fprintf(out, "SIP profile: %d instrumentation points at threshold %.0f%%\n",
			sel.Points(), *threshold*100)
	}

	var trace []mem.Access
	if !*streamMode {
		trace = w.Generate(workload.Ref)
	}

	// With -compare, the scheme run and the baseline run are independent
	// cells; fan them out on the worker pool. Results land by index,
	// so the report below is identical at any -parallel setting.
	encs := []sim.Enclave{enc}
	if *compare && sch != sim.Baseline {
		base := enc
		base.Scheme = sim.Baseline
		base.Selection = nil
		encs = append(encs, base)
	}
	// The observers watch only the primary run (a baseline comparison
	// run stays unhooked), and each run is single-goroutine, so the
	// recorded timeline is byte-identical at any -parallel setting.
	obsv, err := openObservers(*tracePath, *metricsOut, *serveAddr, 1, out)
	if err != nil {
		return err
	}
	defer obsv.close()
	results := make([]sim.Result, len(encs))
	err = pool.Run(*parallel, len(encs), func(i int) error {
		enc := encs[i]
		platform := sim.SharedConfig{EPCPages: *epcPages, EvictPolicy: pol, Quota: quota}
		if i == 0 {
			platform.Hook = obsv.hook(0)
		}
		if *streamMode {
			// Each cell pulls its own fresh stream, so -compare cells stay
			// independent under any -parallel setting.
			enc.Stream = repeatStream(w, *repeat)
		} else {
			enc.Trace = trace
		}
		res, err := sim.RunShared([]sim.Enclave{enc}, platform)
		if err != nil {
			return err
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "  %s run done\n", enc.Scheme)
		}
		results[i] = res[0].Result
		return nil
	})
	if err != nil {
		return err
	}
	res := results[0]

	fmt.Fprintf(out, "benchmark:        %s (%s)\n", w.Name, w.Category)
	fmt.Fprintf(out, "scheme:           %s\n", res.Scheme)
	fmt.Fprintf(out, "cycles:           %d\n", res.Cycles)
	fmt.Fprintf(out, "accesses:         %d\n", res.Accesses)
	fmt.Fprintf(out, "hits:             %d\n", res.Hits)
	fmt.Fprintf(out, "demand faults:    %d\n", res.Kernel.DemandFaults)
	fmt.Fprintf(out, "evictions:        %d\n", res.Kernel.Evictions)
	fmt.Fprintf(out, "preloads started: %d (dropped %d)\n",
		res.Kernel.PreloadsStarted, res.Kernel.PreloadsDropped)
	fmt.Fprintf(out, "notify loads:     %d (hits %d)\n",
		res.Kernel.NotifyLoads, res.Kernel.NotifyHits)
	fmt.Fprintf(out, "fault cycles:     %d (%.1f%% of run)\n",
		res.FaultCycles(), 100*float64(res.FaultCycles())/float64(res.Cycles))
	if res.Kernel.DFPStopped {
		fmt.Fprintf(out, "safety valve:     fired at cycle %d\n", res.Kernel.DFPStopCycle)
	}

	if len(results) == 2 {
		base := results[1]
		fmt.Fprintf(out, "baseline cycles:  %d\n", base.Cycles)
		fmt.Fprintf(out, "improvement:      %+.2f%%\n", stats.ImprovementPct(res.Cycles, base.Cycles))
	}

	return obsv.finish(fmt.Sprintf("%s / %s", w.Name, res.Scheme), out)
}

// buildSelection profiles the workload's Train input and selects SIP
// instrumentation sites. The profiling pass pulls the train trace
// access by access, so it never exists as a slice.
func buildSelection(w *workload.Workload, epcPages int, d dfp.Config, threshold float64) (*sip.Selection, error) {
	if !w.Instrumentable {
		return nil, fmt.Errorf("%s cannot be instrumented (%s)", w.Name, w.Language)
	}
	cl, err := sip.NewClassifier(epcPages, w.ELRangePages(), d)
	if err != nil {
		return nil, err
	}
	src := w.Stream(workload.Train)
	for a, ok := src.Next(); ok; a, ok = src.Next() {
		cl.Record(a.Site, a.Page)
	}
	return sip.Select(cl.Profile(), threshold, sip.MinSiteAccesses), nil
}

// clusterOpts carries the flag values of a multi-enclave (fleet) run.
type clusterOpts struct {
	hosts         int
	placement     fleet.Policy
	arrivalPeriod uint64
	admitPeriod   uint64
	admitBurst    int
	scheme        sim.Scheme
	dfp           dfp.Config
	predictor     core.Kind
	policy        epc.Policy
	quota         arbiter.Policy
	epcPages      int
	stream        bool
	repeat        int
	reclaim       bool
	threshold     float64
	tracePath     string
	metricsOut    string
	serveAddr     string
	workers       int
}

// runClusterFleet turns the benchmark list into a timed arrival stream
// (launch i at i * arrivalPeriod) and drives it through the fleet
// layer: one engine per host, each its own EPC domain, placements made
// by the selected policy at each arrival barrier, launches past the
// token bucket's rate shed at the front door. The fleet advances hosts
// in parallel between barriers with a deterministic merge, so the
// report is identical at any parallelism. A zero arrival period
// launches everything at t = 0: with round-robin placement that is
// static sharding, and on one host it is the shared-EPC co-run.
func runClusterFleet(names []string, o clusterOpts, out io.Writer) error {
	arrivals := make([]fleet.Arrival, len(names))
	for i, name := range names {
		w, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		enc := sim.Enclave{
			Name:              fmt.Sprintf("%s/%d", w.Name, i),
			Pages:             w.ELRangePages(),
			Scheme:            o.scheme,
			DFP:               o.dfp,
			Predictor:         o.predictor,
			BackgroundReclaim: o.reclaim,
		}
		if o.scheme.UsesSIP() {
			sel, err := buildSelection(w, o.epcPages, o.dfp, o.threshold)
			if err != nil {
				return err
			}
			enc.Selection = sel
		}
		if o.stream {
			enc.Stream = repeatStream(w, o.repeat)
		} else {
			enc.Trace = w.Generate(workload.Ref)
		}
		arrivals[i] = fleet.Arrival{At: uint64(i) * o.arrivalPeriod, Enclave: enc}
	}
	return runFleetArrivals(arrivals, o, out)
}

// runSpecFleet compiles a JSON workload spec into the cluster's arrival
// stream and drives it through the same fleet tail as the -bench list
// path. The compilation is seeded by the spec, so the whole run —
// launch times, workload picks, modifiers, placements, and the report —
// is identical at any -parallel setting.
func runSpecFleet(path string, rateScale float64, o clusterOpts, out io.Writer) error {
	s, err := spec.Load(path)
	if err != nil {
		return err
	}
	arrivals, m, err := spec.Compile(s, spec.Options{
		Scheme:            o.scheme,
		DFP:               o.dfp,
		Predictor:         o.predictor,
		BackgroundReclaim: o.reclaim,
		RateScale:         rateScale,
		Selection: func(w *workload.Workload) (*sip.Selection, error) {
			return buildSelection(w, o.epcPages, o.dfp, o.threshold)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "spec:             %s: %d launches from %d cohort(s) before cycle %d (rate x%g)\n",
		m.Spec, len(m.Launches), len(s.Cohorts), m.Horizon, rateScale)
	return runFleetArrivals(arrivals, o, out)
}

// runFleetArrivals is the one multi-enclave tail: place the arrival
// stream onto o.hosts hosts, run to completion, and print the per-host
// report. With -trace every host streams its own timeline — the flat
// path on one host, <path>.host<N> otherwise. -metrics-out and -serve
// observe a one-host run's engine through its host hook.
func runFleetArrivals(arrivals []fleet.Arrival, o clusterOpts, out io.Writer) error {
	cfg := fleet.Config{
		Hosts:       o.hosts,
		Policy:      o.placement,
		Platform:    sim.SharedConfig{EPCPages: o.epcPages, EvictPolicy: o.policy, Quota: o.quota},
		AdmitPeriod: o.admitPeriod,
		AdmitBurst:  o.admitBurst,
		Workers:     o.workers,
	}
	obsv, err := openObservers(o.tracePath, o.metricsOut, o.serveAddr, o.hosts, out)
	if err != nil {
		fleet.CloseArrivals(arrivals)
		return err
	}
	defer obsv.close()
	cfg.Platform.HookFactory = obsv.hook
	res, err := fleet.Run(arrivals, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "platform:         EPC %d pages per host, scheme %s%s\n", o.epcPages, o.scheme, quotaTag(o.quota))
	fmt.Fprint(out, res.String())
	tbl := &stats.Table{Header: []string{
		"host", "enclave", "cycles", "accesses", "hits", "faults", "preloads", "resident", "quota",
	}}
	for h, hr := range res.Hosts {
		for i, r := range hr.Enclaves {
			quotaCol := "-" // Global policy: no quotas
			if hr.Quota != nil {
				quotaCol = fmt.Sprint(hr.Quota[i])
			}
			tbl.Add(h, r.Name, r.Cycles, r.Accesses, r.Hits, r.Kernel.DemandFaults,
				r.Kernel.PreloadsStarted, hr.Resident[i], quotaCol)
		}
	}
	fmt.Fprint(out, tbl.String())
	if len(res.Shed) > 0 {
		fmt.Fprintf(out, "shed at the front door: %s\n", strings.Join(res.Shed, ", "))
	}

	return obsv.finish(fmt.Sprintf("fleet of %d / %s", len(arrivals), o.scheme), out)
}

// quotaTag renders the quota policy for run headers; empty under the
// Global default so existing output stays byte-identical.
func quotaTag(q arbiter.Policy) string {
	if q == arbiter.Global {
		return ""
	}
	return fmt.Sprintf(", quota %s", q)
}

// taggedTracePath inserts a per-host tag before the extension of the
// path's base name: (run.jsonl, host2) -> run.host2.jsonl, and
// (out.d/run, host2) -> out.d/run.host2.
func taggedTracePath(path, tag string) string {
	dir, base := filepath.Split(path)
	if i := strings.LastIndex(base, "."); i > 0 {
		return fmt.Sprintf("%s%s.%s%s", dir, base[:i], tag, base[i:])
	}
	return fmt.Sprintf("%s.%s", path, tag)
}

// repeatStream replays the workload's Ref trace n times back-to-back,
// regenerating the coroutine stream at each cycle boundary (n == 0
// repeats forever). Memory stays O(1) at any n, and Close releases the
// current cycle's coroutine.
func repeatStream(w *workload.Workload, n int) mem.Stream {
	return &repeated{w: w, n: n, cycle: 1, cur: w.Stream(workload.Ref)}
}

type repeated struct {
	w        *workload.Workload
	n, cycle int
	cur      mem.Stream // nil once exhausted or closed
}

func (r *repeated) Next() (mem.Access, bool) {
	for r.cur != nil {
		if a, ok := r.cur.Next(); ok {
			return a, true
		}
		if r.n > 0 && r.cycle >= r.n {
			r.cur = nil
			break
		}
		r.cycle++
		r.cur = r.w.Stream(workload.Ref)
	}
	return mem.Access{}, false
}

func (r *repeated) Close() {
	mem.Close(r.cur)
	r.cur = nil
}

// observers is the hook set of one run, shared by the solo path and the
// fleet tail: a -trace StreamSink per host, the -metrics-out fold and
// the -serve ring. Traces stream to disk as they are emitted, so a
// traced run's memory is independent of its length. A text
// -metrics-out folds the run into a Summary (memory grows with the
// channel's busy runs and the service thread's scans, not the event
// count); only the .svg timeline records raw events. The shared
// observers see one timeline, so callers reject -metrics-out and -serve
// on multi-host runs.
type observers struct {
	sinks      []*obs.StreamSink
	tracePaths []string
	// shared holds the -metrics-out fold and the -serve ring.
	shared     []obs.Hook
	metricsOut string
	// render produces the -metrics-out file's contents; nil without one.
	render    func(title string) string
	stopServe func()
}

// openObservers opens a run's observers for the given host count: the
// trace sinks (the flat path on one host, <path>.host<N> otherwise),
// the -metrics-out fold and the live-metrics server. On error it closes
// whatever it had opened.
func openObservers(tracePath, metricsOut, serveAddr string, hosts int, out io.Writer) (*observers, error) {
	o := &observers{metricsOut: metricsOut}
	if tracePath != "" {
		for h := 0; h < hosts; h++ {
			path := tracePath
			if hosts > 1 {
				path = taggedTracePath(tracePath, fmt.Sprintf("host%d", h))
			}
			s, err := obs.NewStreamSinkFile(path)
			if err != nil {
				o.close()
				return nil, err
			}
			o.sinks = append(o.sinks, s)
			o.tracePaths = append(o.tracePaths, path)
		}
	}
	switch {
	case strings.HasSuffix(metricsOut, ".svg"):
		rec := obs.NewRecorder()
		o.shared = append(o.shared, rec)
		o.render = func(title string) string { return timelineSVG(title, rec.Events()) }
	case metricsOut != "":
		sum := obs.NewSummary()
		o.shared = append(o.shared, sum)
		o.render = func(string) string { return sum.Report().String() }
	}
	if serveAddr != "" {
		// The ring locks per event, so HTTP scrapers see consistent
		// snapshots mid-run.
		ring := obs.NewRing(0)
		o.shared = append(o.shared, ring)
		stop, err := serveMetrics(serveAddr, ring, out)
		if err != nil {
			o.close()
			return nil, err
		}
		o.stopServe = stop
	}
	return o, nil
}

// hook returns host h's hook — its trace sink teed with the shared
// observers — or nil when nothing observes the run.
func (o *observers) hook(h int) obs.Hook {
	hooks := o.shared
	if h < len(o.sinks) {
		hooks = append([]obs.Hook{o.sinks[h]}, o.shared...)
	}
	return obs.Tee(hooks...)
}

// finish closes the trace sinks, printing one line per trace, and
// writes -metrics-out titled title.
func (o *observers) finish(title string, out io.Writer) error {
	for h, s := range o.sinks {
		if err := s.Close(); err != nil {
			return fmt.Errorf("trace %s: %w", o.tracePaths[h], err)
		}
		if len(o.sinks) == 1 {
			fmt.Fprintf(out, "trace:            %d events -> %s\n", s.Events(), o.tracePaths[h])
		} else {
			fmt.Fprintf(out, "trace host %d:     %d events -> %s\n", h, s.Events(), o.tracePaths[h])
		}
	}
	if o.render == nil {
		return nil
	}
	return writeMetrics(o.metricsOut, o.render(title), out)
}

// close releases everything still open — the trace sinks and the
// live-metrics server. It is safe after finish and on error paths.
func (o *observers) close() {
	for _, s := range o.sinks {
		s.Close()
	}
	if o.stopServe != nil {
		o.stopServe()
		o.stopServe = nil
	}
}

// timelineSVG renders the events as the page-versus-time chart a .svg
// -metrics-out holds.
func timelineSVG(title string, events []obs.Event) string {
	return obs.Timeline(title, events, 4000).SVG()
}

// writeMetrics writes a -metrics-out file and reports it.
func writeMetrics(path, data string, out io.Writer) error {
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "metrics:          %s\n", path)
	return nil
}

// runReplay loads a recorded trace and re-derives the run's metrics
// without simulating. The printed Report is byte-identical to what the
// live run's -metrics-out wrote, because both are the obs.Summary fold
// over the same event timeline.
func runReplay(path, metricsOut string, jsonOut bool, out io.Writer) error {
	events, err := replay.ReadFile(path)
	if err != nil {
		return err
	}
	report := obs.BuildReport(events)
	if jsonOut {
		b, err := json.Marshal(report)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(b))
	} else {
		fmt.Fprintf(out, "replayed:            %d events from %s\n", len(events), path)
		fmt.Fprint(out, report.String())
	}
	if metricsOut == "" {
		return nil
	}
	data := report.String()
	if strings.HasSuffix(metricsOut, ".svg") {
		data = timelineSVG("replay of "+path, events)
	}
	return writeMetrics(metricsOut, data, out)
}

// runDiff loads two recorded traces and reports the first divergent
// event plus per-kind and per-metric deltas.
func runDiff(paths []string, jsonOut bool, out io.Writer) error {
	if len(paths) != 2 {
		return fmt.Errorf("-diff needs exactly two trace paths, got %d", len(paths))
	}
	a, err := replay.ReadFile(paths[0])
	if err != nil {
		return err
	}
	b, err := replay.ReadFile(paths[1])
	if err != nil {
		return err
	}
	d := replay.Compare(a, b)
	if jsonOut {
		buf, err := json.Marshal(d)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(buf))
		return nil
	}
	fmt.Fprintf(out, "diff:                a = %s, b = %s\n", paths[0], paths[1])
	fmt.Fprint(out, d.String())
	return nil
}

// serveMetrics starts the live-metrics HTTP server on addr, printing the
// bound address (so :0 is usable), and returns a shutdown func. The
// server runs for the duration of the simulation; scrape /metrics,
// /events?since=N, or /report while the run is in flight.
func serveMetrics(addr string, ring *obs.Ring, out io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "serving metrics:  http://%s (/metrics /events /report)\n", ln.Addr())
	srv := &http.Server{Handler: obs.NewHandler(ring)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return func() {
		srv.Close()
		<-done
	}, nil
}
