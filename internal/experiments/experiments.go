// Package experiments reproduces the paper's evaluation (§5): one runner
// per table and figure, each returning the same rows or series the paper
// reports. Absolute cycle counts differ from the authors' testbed — the
// substrate is a simulator — but the shapes (who wins, by roughly what
// factor, where the crossovers and sweet spots fall) are the reproduction
// targets; EXPERIMENTS.md records paper-versus-measured for each.
//
// Per the paper's §5.1, after Figure 8 the abort safety valve "is
// integrated into the DFP and enabled by default", so every experiment
// after Figure 8 uses DFP-stop as its DFP arm; Figure 8 itself compares
// plain DFP against DFP-stop.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"sgxpreload/internal/core"
	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
)

// Params are the experiment-wide settings. The defaults scale the paper's
// platform (≈24576 usable EPC pages, benchmarks with up to gigabyte
// footprints) down by ~12x while preserving every footprint-to-EPC ratio.
type Params struct {
	// EPCPages is the EPC capacity used by every run.
	EPCPages int
	// Threshold is the SIP irregular-access-ratio instrumentation
	// threshold (the paper's sweet spot is 5%, Figure 9).
	Threshold float64
	// DFP is the predictor operating point (stream list 30, preload
	// distance 4 — the values the paper settles on in §5.1).
	DFP dfp.Config
}

// Default returns the standard parameters.
func Default() Params {
	return Params{
		EPCPages:  2048,
		Threshold: 0.05,
		DFP:       dfp.DefaultConfig(),
	}
}

// Runner executes experiment runs with caching: generated traces, SIP
// profiles and site selections are deterministic per workload, and every
// single-enclave simulation is memoized per cell (see cell), so a cell
// shared by several figures is simulated once. The caches are
// single-flight and safe for concurrent use, and every study fans its
// cells out across the runner's worker pool (SetParallelism); results
// are keyed by cell index, so the output is byte-identical at any worker
// count.
type Runner struct {
	p       Params
	workers int

	progressMu sync.Mutex
	progress   Progress

	traces     *memo[traceKey, []mem.Access]
	profiles   *memo[string, *sip.Profile]
	selections *memo[selectionKey, *sip.Selection]
	cells      *memo[cell, sim.Result]
}

type traceKey struct {
	name string
	in   workload.Input
}

type selectionKey struct {
	name      string
	threshold float64
}

// NewRunner returns a Runner with the given parameters and a worker pool
// sized to GOMAXPROCS.
func NewRunner(p Params) *Runner {
	return &Runner{
		p:          p,
		workers:    runtime.GOMAXPROCS(0),
		traces:     newMemo[traceKey, []mem.Access](),
		profiles:   newMemo[string, *sip.Profile](),
		selections: newMemo[selectionKey, *sip.Selection](),
		cells:      newMemo[cell, sim.Result](),
	}
}

// SetParallelism bounds the worker pool for sweeps: 1 is fully
// sequential, n <= 0 resets to GOMAXPROCS. Tables and figures are
// identical at every setting; only wall-clock time changes.
func (r *Runner) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	r.workers = n
}

// SetProgress installs a per-cell completion callback (nil disables).
// Calls are serialized by the runner.
func (r *Runner) SetProgress(p Progress) { r.progress = p }

// Trace returns the (cached) access trace of a workload input. The fill
// is single-flight: concurrent sweep workers requesting the same trace
// share one generation.
func (r *Runner) Trace(w *workload.Workload, in workload.Input) []mem.Access {
	t, _ := r.traces.get(traceKey{w.Name, in}, func() ([]mem.Access, error) {
		return w.Generate(in), nil
	})
	return t
}

// Profile returns the (cached) SIP profile of a workload, built by
// classifying its train-input trace. The trace is streamed, not taken
// from the trace memo: the profile is the only reader of a train input,
// and it is memoized itself, so the memo holds only ref traces.
func (r *Runner) Profile(w *workload.Workload) (*sip.Profile, error) {
	return r.profiles.get(w.Name, func() (*sip.Profile, error) {
		p, err := sip.ProfileStream(w.Stream(workload.Train), r.p.EPCPages, w.ELRangePages(), r.p.DFP)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", w.Name, err)
		}
		return p, nil
	})
}

// Selection returns the (cached) instrumentation-site selection of a
// workload at the runner's threshold.
func (r *Runner) Selection(w *workload.Workload) (*sip.Selection, error) {
	return r.selection(w, r.p.Threshold)
}

// selection returns the (cached) site selection of w at threshold.
func (r *Runner) selection(w *workload.Workload, threshold float64) (*sip.Selection, error) {
	return r.selections.get(selectionKey{w.Name, threshold}, func() (*sip.Selection, error) {
		p, err := r.Profile(w)
		if err != nil {
			return nil, err
		}
		return sip.Select(p, threshold, sip.MinSiteAccesses), nil
	})
}

// cell is one single-enclave simulation as a comparable value: every
// input the run reads. Studies declare their cells and get results back
// from simulate, which runs each distinct cell once per runner. Cells
// come from Runner.cell, which spells out the runner's defaults (the
// explicit default cost model runs exactly as the engine's zero value
// does), so a cell that varies one knob shares every other field with
// the default cells, and a run that several studies declare has one key.
type cell struct {
	name      string // registered workload; its ref trace is the input
	scheme    sim.Scheme
	dfp       dfp.Config
	threshold float64 // SIP site-selection threshold (SIP schemes)
	predictor core.Kind
	reclaim   bool
	// lead issues an oracle preload notification lead accesses before
	// each instrumented access (SIP schemes; 0 is the paper's SIP).
	lead     int
	epcPages int
	costs    mem.CostModel
	policy   epc.Policy
}

// cell returns workload name's ref run under scheme at the runner's
// defaults.
func (r *Runner) cell(name string, scheme sim.Scheme) cell {
	return cell{
		name:      name,
		scheme:    scheme,
		dfp:       r.p.DFP,
		threshold: r.p.Threshold,
		epcPages:  r.p.EPCPages,
		costs:     mem.DefaultCostModel(),
	}
}

// grid returns the cells of every names × schemes pair, row-major.
func (r *Runner) grid(names []string, schemes ...sim.Scheme) []cell {
	cells := make([]cell, 0, len(names)*len(schemes))
	for _, name := range names {
		for _, s := range schemes {
			cells = append(cells, r.cell(name, s))
		}
	}
	return cells
}

// String labels the cell in progress reports.
func (c cell) String() string {
	return fmt.Sprintf("%s/%s list=%d L=%d threshold=%g predictor=%q reclaim=%t lead=%d epc=%d load=%d evict=%s",
		c.name, c.scheme, c.dfp.StreamListLen, c.dfp.LoadLength, c.threshold,
		c.predictor, c.reclaim, c.lead, c.epcPages, c.costs.Load, c.policy)
}

// setup turns c into its enclave and platform: the cached ref trace and,
// for SIP schemes, the cached site selection at c's threshold.
func (r *Runner) setup(c cell) (sim.Enclave, sim.SharedConfig, error) {
	platform := sim.SharedConfig{Costs: c.costs, EPCPages: c.epcPages, EvictPolicy: c.policy}
	w, err := workload.ByName(c.name)
	if err != nil {
		return sim.Enclave{}, platform, err
	}
	enc := sim.Enclave{
		Name:              c.name,
		Trace:             r.Trace(w, workload.Ref),
		Pages:             w.ELRangePages(),
		Scheme:            c.scheme,
		DFP:               c.dfp,
		Predictor:         c.predictor,
		BackgroundReclaim: c.reclaim,
	}
	if c.scheme.UsesSIP() {
		if !w.Instrumentable {
			return enc, platform, fmt.Errorf("experiments: %s is not instrumentable (%s)", w.Name, w.Language)
		}
		if enc.Selection, err = r.selection(w, c.threshold); err != nil {
			return enc, platform, err
		}
		if c.lead > 0 {
			enc.Trace = insertPrefetches(enc.Trace, enc.Selection, c.lead)
		}
	}
	return enc, platform, nil
}

// result returns c's (cached) outcome; the fill is single-flight, so a
// cell requested by concurrent workers is still simulated once.
func (r *Runner) result(c cell) (sim.Result, error) {
	return r.cells.get(c, func() (sim.Result, error) {
		enc, platform, err := r.setup(c)
		if err != nil {
			return sim.Result{}, err
		}
		return runAlone(enc, platform)
	})
}

// simulate returns the results of a study's cells, in cell order, running
// the uncached ones on the worker pool.
func (r *Runner) simulate(study string, cells []cell) ([]sim.Result, error) {
	return sweep(r, study, cells, r.result)
}

// runAlone simulates enc alone on platform.
func runAlone(enc sim.Enclave, platform sim.SharedConfig) (sim.Result, error) {
	res, err := sim.RunShared([]sim.Enclave{enc}, platform)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %s/%s: %w", enc.Name, enc.Scheme, err)
	}
	return res[0].Result, nil
}

// fleetCell is one multi-enclave simulation: an arrival list on a fleet.
// A one-host fleet with every arrival at t = 0 is a shared-EPC co-run.
// Fleet cells are not memoized (arrival lists are not comparable keys),
// and cells may share an arrival list only when it holds no streams.
type fleetCell struct {
	label    string
	arrivals []fleet.Arrival
	cfg      fleet.Config
}

// String labels the cell in progress reports and errors.
func (c *fleetCell) String() string { return c.label }

// fleets runs a study's fleet cells on the worker pool, each cell's hosts
// on its worker, and returns their results in cell order. It takes the
// cells' arrivals: fleet.Run closes a started cell's streams on every
// path, and when a cell fails fleets closes the cells never started.
func (r *Runner) fleets(study string, cells []*fleetCell) ([]fleet.Result, error) {
	out, err := sweep(r, study, cells, func(c *fleetCell) (fleet.Result, error) {
		arrivals := c.arrivals
		c.arrivals = nil
		c.cfg.Workers = 1
		res, err := fleet.Run(arrivals, c.cfg)
		if err != nil {
			err = fmt.Errorf("%s/%s: %w", study, c, err)
		}
		return res, err
	})
	if err != nil {
		for _, c := range cells {
			fleet.CloseArrivals(c.arrivals) // nil for the cells the pool started
		}
	}
	return out, err
}

// arrivals returns one t = 0 arrival per cell, each the cell's enclave:
// its cached ref trace and, for SIP schemes, its cached site selection.
func (r *Runner) arrivals(cells ...cell) ([]fleet.Arrival, error) {
	out := make([]fleet.Arrival, len(cells))
	for i, c := range cells {
		var err error
		if out[i].Enclave, _, err = r.setup(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunAll executes the full (workload, scheme) grid and returns results
// indexed [i][j] to match names[i] and schemes[j].
func (r *Runner) RunAll(names []string, schemes []sim.Scheme) ([][]sim.Result, error) {
	res, err := r.simulate("grid", r.grid(names, schemes...))
	if err != nil {
		return nil, err
	}
	out := make([][]sim.Result, len(names))
	for i := range names {
		out[i] = res[i*len(schemes) : (i+1)*len(schemes)]
	}
	return out, nil
}

// LargeWorkingSet lists the benchmarks the DFP study (Figures 7 and 8)
// covers: every Table 1 large-footprint row plus the microbenchmark.
func LargeWorkingSet() []string {
	return []string{
		"bwaves", "lbm", "wrf", "microbenchmark",
		"roms", "mcf", "deepsjeng", "omnetpp", "xz",
	}
}

// SIPSet lists the benchmarks of the SIP study (Figure 10): the C/C++
// large-footprint benchmarks the paper's instrumenter supports, plus mcf
// from SPEC CPU2006.
func SIPSet() []string {
	return []string{"mcf.2006", "mcf", "xz", "deepsjeng", "lbm", "microbenchmark"}
}

// Figure7Set lists the seven large-footprint benchmarks of the preload-
// distance sweep.
func Figure7Set() []string {
	return []string{"bwaves", "lbm", "wrf", "roms", "mcf", "deepsjeng", "omnetpp"}
}
