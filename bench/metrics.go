package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"sgxpreload/internal/kernel"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/stats"
)

// metric is one catalogue entry; BENCHMARK.json lists the same names,
// units, directions and bounds (a test holds the two together).
type metric struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the old median a value may worsen by
}

// endToEnd are the metrics a user of the simulator sees, measured on
// untraced rounds.
var endToEnd = []metric{
	{"accesses_per_s", "1/s", "higher", 0.10},
	{"wall_s", "s", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"cpu_s", "s", "lower", 0.10},
}

// perLayer are single-layer metrics from traced rounds. Counts of
// simulated work are exact; a change that only speeds the simulator up
// must leave every one of them unchanged. A layer that does not run in a
// workload reads 0 there.
var perLayer = []metric{
	{name: "workload.pulls", unit: "count", better: "lower"},
	{name: "workload.pull_ns", unit: "ns", better: "lower"},
	{name: "workload.generate_s", unit: "s", better: "lower"},
	{name: "sim.steps", unit: "count", better: "lower"},
	{name: "sim.step_ns", unit: "ns", better: "lower"},
	{name: "sim.construct_s", unit: "s", better: "lower"},
	{name: "kernel.hit_ratio", unit: "frac", better: "higher"},
	{name: "kernel.demand_faults", unit: "count", better: "lower"},
	{name: "kernel.preloads_started", unit: "count", better: "lower"},
	{name: "kernel.preload_drop_ratio", unit: "frac", better: "lower"},
	{name: "kernel.notify_hit_ratio", unit: "frac", better: "higher"},
	{name: "kernel.scans", unit: "count", better: "lower"},
	{name: "kernel.fault_cycle_share", unit: "frac", better: "lower"},
	{name: "channel.load_wait_cycles_per_fault", unit: "cycles", better: "lower"},
	{name: "epc.evictions", unit: "count", better: "lower"},
	{name: "epc.resident_final", unit: "pages", better: "higher"},
	{name: "dfp.stream_starts", unit: "count", better: "lower"},
	{name: "dfp.stopped_runs", unit: "count", better: "lower"},
	{name: "arbiter.rebalance_events", unit: "count", better: "lower"},
	{name: "spec.compile_s", unit: "s", better: "lower"},
	{name: "spec.launches", unit: "count", better: "lower"},
	{name: "sip.profile_s", unit: "s", better: "lower"},
	{name: "sip.points", unit: "count", better: "lower"},
	{name: "fleet.run_s", unit: "s", better: "lower"},
	{name: "fleet.barriers", unit: "count", better: "lower"},
	{name: "fleet.shed", unit: "count", better: "lower"},
	{name: "fleet.host_imbalance", unit: "ratio", better: "lower"},
	{name: "fleet.fault_p99_cycles", unit: "cycles", better: "lower"},
	{name: "obs.events", unit: "count", better: "lower"},
	{name: "obs.emit_ns", unit: "ns", better: "lower"},
	{name: "obs.close_s", unit: "s", better: "lower"},
	{name: "obs.trace_bytes", unit: "bytes", better: "lower"},
	{name: "obs.report_build_s", unit: "s", better: "lower"},
	{name: "replay.events", unit: "count", better: "lower"},
	{name: "replay.parse_ns_per_event", unit: "ns", better: "lower"},
	{name: "replay.report_events_per_s", unit: "1/s", better: "higher"},
	{name: "trace_overhead_frac", unit: "frac", better: "lower"},
}

// layerMetrics computes a traced round's per-layer metrics, all but
// trace_overhead_frac, which compares rounds and is the parent's.
func (rc *roundCtx) layerMetrics() map[string]float64 {
	var k kernel.Stats
	var accesses, hits, cycles, stopped uint64
	for _, r := range rc.results {
		accesses += r.Accesses
		hits += r.Hits
		cycles += r.Cycles
		if r.Kernel.DFPStopped {
			stopped++
		}
		s := r.Kernel
		k.DemandFaults += s.DemandFaults
		k.PreloadsQueued += s.PreloadsQueued
		k.PreloadsStarted += s.PreloadsStarted
		k.PreloadsDropped += s.PreloadsDropped
		k.NotifyLoads += s.NotifyLoads
		k.NotifyHits += s.NotifyHits
		k.Evictions += s.Evictions
		k.Scans += s.Scans
		k.AEXCycles += s.AEXCycles
		k.LoadWaitCycles += s.LoadWaitCycles
		k.EresumeCycles += s.EresumeCycles
	}
	pullOp, stepOp, emitOp := ops(rc.probes...)
	kinds := make([]uint64, len(obs.Kinds())+1)
	for _, cp := range rc.probes {
		for _, h := range cp.hooks {
			for i, n := range h.kinds {
				kinds[i] += n
			}
		}
	}

	m := map[string]float64{
		"workload.pulls":                     float64(pullOp.Calls),
		"workload.pull_ns":                   pullOp.MeanNS,
		"workload.generate_s":                rc.log.total("workload.Generate"),
		"sim.steps":                          float64(stepOp.Calls),
		"sim.step_ns":                        ownStepNS(stepOp, pullOp, emitOp),
		"sim.construct_s":                    rc.log.total("sim.New"),
		"kernel.hit_ratio":                   ratio(hits, accesses),
		"kernel.demand_faults":               float64(k.DemandFaults),
		"kernel.preloads_started":            float64(k.PreloadsStarted),
		"kernel.preload_drop_ratio":          ratio(k.PreloadsDropped, k.PreloadsQueued),
		"kernel.notify_hit_ratio":            ratio(k.NotifyHits, k.NotifyHits+k.NotifyLoads),
		"kernel.scans":                       float64(k.Scans),
		"kernel.fault_cycle_share":           ratio(k.AEXCycles+k.LoadWaitCycles+k.EresumeCycles, cycles),
		"channel.load_wait_cycles_per_fault": ratio(k.LoadWaitCycles, k.DemandFaults),
		"epc.evictions":                      float64(k.Evictions),
		"epc.resident_final":                 float64(rc.resident),
		"dfp.stream_starts":                  float64(kinds[obs.KindStreamStart]),
		"dfp.stopped_runs":                   float64(stopped),
		"arbiter.rebalance_events":           float64(kinds[obs.KindQuotaRebalance]),
		"spec.compile_s":                     rc.log.total("spec.Compile"),
		"sip.profile_s":                      rc.log.total("sip.profile"),
		"sip.points":                         float64(rc.sipPoints),
		"fleet.run_s":                        rc.log.total("fleet.Run"),
		"obs.events":                         float64(emitOp.Calls),
		"obs.emit_ns":                        emitOp.MeanNS,
		"obs.close_s":                        rc.log.total("obs.StreamSink.Close"),
		"obs.report_build_s":                 rc.log.total("obs.BuildReport"),
	}
	if fr := rc.fleet; fr != nil {
		var max, sum float64
		for _, h := range fr.res.Hosts {
			var n float64
			for _, e := range h.Enclaves {
				n += float64(e.Accesses)
			}
			sum += n
			max = math.Max(max, n)
		}
		parse := rc.log.total("replay.ReadFile")
		events := float64(fr.replayEvents)
		m["spec.launches"] = float64(fr.launches)
		m["fleet.barriers"] = float64(fr.barriers)
		m["fleet.shed"] = float64(len(fr.res.Shed))
		m["fleet.host_imbalance"] = quotient(max, sum/float64(len(fr.res.Hosts)))
		m["fleet.fault_p99_cycles"] = fr.res.FaultP99
		m["obs.trace_bytes"] = float64(fr.traceBytes)
		m["replay.events"] = events
		m["replay.parse_ns_per_event"] = quotient(parse*1e9, events)
		m["replay.report_events_per_s"] = quotient(events, parse+m["obs.report_build_s"])
	}
	for _, d := range perLayer {
		if v, ok := m[d.name]; (!ok || math.IsNaN(v)) && d.name != "trace_overhead_frac" {
			m[d.name] = 0 // the layer did not run (a fault percentile over no faults is NaN)
		}
	}
	return m
}

func ratio(a, b uint64) float64 { return quotient(float64(a), float64(b)) }

// quotient is a/b, or 0 when there is nothing to divide by.
func quotient(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summary is one metric over a set of rounds. The quartiles are those of
// Python's statistics.quantiles(values, n=4), the default exclusive
// method.
type summary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Min    float64   `json:"min"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	out := summary{Unit: unit, N: n, Values: values}
	if n == 0 {
		return out
	}
	out.Min, out.Max = s[0], s[n-1]
	out.Median = s[n/2]
	if n%2 == 0 {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		out.Q1, out.Q3 = s[0], s[0]
		return out
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = q(1), q(3)
	return out
}

// spread is the rounds' quartile spread as a share of their median.
func (s summary) spread() float64 {
	if s.Median == 0 || s.N == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// environment is the machine and build a document was measured on.
type environment struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified"`
}

func currentEnvironment() environment {
	env := environment{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

// cpuModel reads the CPU model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// comparable reports why two environments cannot be compared, or "".
func (e environment) comparable(o environment) string {
	a, b := e, o
	a.Revision, b.Revision, a.Modified, b.Modified = "", "", false, false
	if a != b {
		return fmt.Sprintf("measured on different machines or toolchains: %+v vs %+v", a, b)
	}
	return ""
}

// document is one benchmark invocation's result: the environment, the
// settings, and per workload every metric's spread over the rounds.
type document struct {
	Env       environment   `json:"env"`
	Seed      uint64        `json:"seed"`
	Traced    bool          `json:"traced"`
	Workloads []workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Name         string `json:"name"`
	Rounds       int    `json:"rounds"`
	TracedRounds int    `json:"traced_rounds,omitempty"`
	Attempted    int    `json:"attempted"`
	Failed       int    `json:"failed"`
	// Scale is each untraced round's factor from raw host seconds to
	// reference seconds; a raw time is its end-to-end value over it.
	Scale    summary            `json:"scale"`
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]summary `json:"per_layer,omitempty"`
}

// readDocuments reads a result document, or a JSON array of them (the
// committed baseline holds several).
func readDocuments(path string) ([]document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var docs []document
	if strings.HasPrefix(strings.TrimSpace(string(data)), "[") {
		err = json.Unmarshal(data, &docs)
	} else {
		var d document
		err = json.Unmarshal(data, &d)
		docs = []document{d}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return docs, nil
}

// pooled merges the untraced documents of one file into per-(workload,
// metric) samples, refusing documents from different environments.
func pooled(path string) (environment, map[string]map[string][]float64, error) {
	docs, err := readDocuments(path)
	if err != nil {
		return environment{}, nil, err
	}
	var env environment
	out := map[string]map[string][]float64{}
	n := 0
	for _, d := range docs {
		if d.Traced {
			continue
		}
		if n == 0 {
			env = d.Env
		} else if why := env.comparable(d.Env); why != "" {
			return env, nil, fmt.Errorf("%s: %s", path, why)
		}
		n++
		for _, w := range d.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = map[string][]float64{}
			}
			for name, s := range w.EndToEnd {
				out[w.Name][name] = append(out[w.Name][name], s.Values...)
			}
		}
	}
	if n == 0 {
		return env, nil, fmt.Errorf("%s: no untraced result document", path)
	}
	return env, out, nil
}

// compare prints, per (workload, end-to-end metric), the old and new
// medians and a verdict under the metric's bound. A metric whose rounds
// on either side spread wider than its bound is unresolved. It returns
// whether any metric regressed.
func compare(oldPath, newPath string, w io.Writer) (bool, error) {
	oldEnv, oldS, err := pooled(oldPath)
	if err != nil {
		return false, err
	}
	newEnv, newS, err := pooled(newPath)
	if err != nil {
		return false, err
	}
	if why := oldEnv.comparable(newEnv); why != "" {
		return false, fmt.Errorf("refusing to compare: %s", why)
	}
	regressed := false
	t := &stats.Table{Header: []string{"workload", "metric", "old median", "new median", "worse by", "bound", "verdict"}}
	for _, wd := range workloads {
		for _, m := range endToEnd {
			ov, nv := oldS[wd.name][m.name], newS[wd.name][m.name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o, n := summarize(m.unit, ov), summarize(m.unit, nv)
			worse := (n.Median - o.Median) / o.Median
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case o.spread() > m.bound || n.spread() > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "REGRESSED"
				regressed = true
			case worse < -m.bound:
				verdict = "improved"
			}
			t.Add(wd.name, m.name, fmt.Sprintf("%.6g", o.Median), fmt.Sprintf("%.6g", n.Median),
				fmt.Sprintf("%+.1f%%", 100*worse), fmt.Sprintf("%.0f%%", 100*m.bound), verdict)
		}
	}
	fmt.Fprintf(w, "old %s (%s)\nnew %s (%s)\n", oldPath, oldEnv.Revision, newPath, newEnv.Revision)
	fmt.Fprint(w, t.String())
	return regressed, nil
}
