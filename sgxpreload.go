// Package sgxpreload is a library reproduction of "Regaining Lost
// Seconds: Efficient Page Preloading for SGX Enclaves" (Middleware '20).
//
// Intel SGX applications whose working set exceeds the Enclave Page Cache
// (EPC) pay ~64,000 cycles per enclave page fault. The paper proposes two
// preloading schemes that cut that cost without growing the enclave's
// trusted computing base: DFP (the untrusted OS predicts streams from the
// fault history and preloads ahead) and SIP (profile-guided source
// instrumentation that replaces likely faults with in-enclave preload
// notifications). This package exposes the complete system — a
// cycle-level model of SGX paging, both preloaders, the hybrid
// combination, the paper's benchmark models, and the evaluation harness —
// behind a small API:
//
//	w, _ := sgxpreload.Benchmark("lbm")
//	base, _ := sgxpreload.Run(w, sgxpreload.Config{Scheme: sgxpreload.Baseline})
//	dfp, _ := sgxpreload.Run(w, sgxpreload.Config{Scheme: sgxpreload.DFP})
//	fmt.Printf("DFP improvement: %.1f%%\n", sgxpreload.ImprovementPct(dfp, base))
//
// Custom workloads implement the Workload interface; SIP runs need a
// profiling pass first (see Profile and Config.Selection):
//
//	sel, _ := sgxpreload.Profile(w, sgxpreload.DefaultConfig())
//	res, _ := sgxpreload.Run(w, sgxpreload.Config{Scheme: sgxpreload.SIP, Selection: sel})
package sgxpreload

import (
	"fmt"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
)

// Access is one page-granular memory access of a workload trace.
type Access struct {
	// Site identifies the static source site issuing the access (0 for
	// unattributed accesses); SIP instruments per site.
	Site uint32
	// Page is the enclave virtual page touched.
	Page uint64
	// Compute is the cycles of enclave computation preceding the access.
	Compute uint64
	// Write marks stores; the paging protocol treats both kinds alike.
	Write bool
}

// Input selects a workload's data set: profiling runs use Train, and
// measurement runs use Ref — the paper's PGO methodology.
type Input int

// Workload inputs.
const (
	Train Input = Input(workload.Train)
	Ref   Input = Input(workload.Ref)
)

// Workload is a program whose page-level access behavior can be replayed
// through the enclave model. Implementations must be deterministic per
// input for reproducible results.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Pages returns the enclave virtual range the workload needs, in
	// 4 KiB pages; every generated access must stay below it.
	Pages() uint64
	// Trace generates the access trace for the given input.
	Trace(in Input) []Access
}

// Scheme selects the preloading configuration.
type Scheme int

// Schemes. Baseline is the vanilla SGX driver; DFP and DFPStop are the
// fault-history preloader without and with the global abort safety valve;
// SIP is source-instrumentation preloading; Hybrid combines SIP with
// DFP-stop.
const (
	Baseline = Scheme(sim.Baseline)
	DFP      = Scheme(sim.DFP)
	DFPStop  = Scheme(sim.DFPStop)
	SIP      = Scheme(sim.SIP)
	Hybrid   = Scheme(sim.Hybrid)
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string { return sim.Scheme(s).String() }

// DFPConfig exposes the predictor tunables of the paper's Algorithm 1.
type DFPConfig struct {
	// StreamListLen is the LRU stream_list length (paper default 30).
	StreamListLen int
	// LoadLength is the preload distance in pages (paper default 4).
	LoadLength int
	// StopSlack is the additive constant of the DFP-stop formula
	// AccPreloadCounter + StopSlack < PreloadCounter/2.
	StopSlack uint64
}

// CostModel re-exports the cycle cost model; see the paper's §2 for the
// published values behind the defaults.
type CostModel = mem.CostModel

// DefaultCostModel returns the paper's published cycle costs.
func DefaultCostModel() CostModel { return mem.DefaultCostModel() }

// Config configures a run.
type Config struct {
	// Scheme is the preloading scheme (default Baseline).
	Scheme Scheme
	// EPCPages is the EPC capacity in 4 KiB frames. The default 2048
	// (8 MiB) preserves the paper's footprint-to-EPC ratios at the
	// library's scaled benchmark sizes; real hardware has ~24576 usable.
	EPCPages int
	// Costs overrides the cycle cost model (zero value = defaults).
	Costs CostModel
	// DFP overrides the predictor tunables (zero value = paper defaults).
	DFP DFPConfig
	// Selection carries the SIP instrumentation sites from Profile; it is
	// required for SIP and Hybrid runs.
	Selection *Selection
	// Threshold is the irregular-ratio instrumentation threshold used by
	// Profile (zero value = the paper's 5%).
	Threshold float64
}

// DefaultConfig returns the standard configuration (baseline scheme, the
// paper's cost model and predictor settings, 2048-page EPC).
func DefaultConfig() Config {
	return Config{EPCPages: 2048, Threshold: 0.05}
}

// Selection is an opaque SIP instrumentation-site set produced by Profile.
type Selection struct {
	sel *sip.Selection
}

// Points returns the number of instrumented sites (Table 2 of the paper):
// the whole growth of the enclave's TCB under SIP.
func (s *Selection) Points() int {
	if s == nil {
		return 0
	}
	return s.sel.Points()
}

// Result reports a run's outcome.
type Result struct {
	// Scheme echoes the configuration.
	Scheme Scheme
	// Cycles is the application's virtual execution time.
	Cycles uint64
	// Accesses, Hits, and Faults count trace accesses, resident-page
	// accesses, and demand page faults.
	Accesses uint64
	Hits     uint64
	Faults   uint64
	// PreloadsStarted and PreloadsDropped count speculative transfers.
	PreloadsStarted uint64
	PreloadsDropped uint64
	// NotifyLoads counts SIP notifications that loaded a page without an
	// enclave exit.
	NotifyLoads uint64
	// StopFired reports whether DFP's global abort shut preloading down.
	StopFired bool
}

// ImprovementPct returns the improvement of res over base in percent
// (positive = res is faster), matching the paper's reporting.
func ImprovementPct(res, base Result) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return 100 * (1 - float64(res.Cycles)/float64(base.Cycles))
}

// normalize fills in config defaults.
func (c Config) normalize() Config {
	if c.EPCPages == 0 {
		c.EPCPages = 2048
	}
	if c.Threshold == 0 {
		c.Threshold = 0.05
	}
	return c
}

// dfpConfig is the internal predictor configuration type.
type dfpConfig = dfp.Config

// defaultDFP returns the paper's predictor defaults.
func defaultDFP() dfpConfig { return dfp.DefaultConfig() }

func (c Config) dfpConfig() dfp.Config { return dfpFromPublic(c.DFP) }

// Run replays the workload's Ref trace under cfg.
func Run(w Workload, cfg Config) (Result, error) {
	return RunInput(w, Ref, cfg)
}

// RunInput replays the given input's trace under cfg, pulling it from
// the workload as the engine runs (see workloadStream). An access
// outside the workload's declared pages fails the run with an error
// naming the workload, the access index and the page.
func RunInput(w Workload, in Input, cfg Config) (Result, error) {
	return cfg.runSolo(sim.Enclave{Name: w.Name(), Stream: workloadStream(w, in), Pages: w.Pages()})
}

// runSolo runs enc alone on the platform cfg describes, with cfg's
// scheme, predictor tunables, and SIP selection.
func (c Config) runSolo(enc sim.Enclave) (Result, error) {
	c = c.normalize()
	enc.Scheme = sim.Scheme(c.Scheme)
	enc.DFP = c.dfpConfig()
	if c.Selection != nil {
		enc.Selection = c.Selection.sel
	}
	res, err := sim.RunShared([]sim.Enclave{enc}, sim.SharedConfig{Costs: c.Costs, EPCPages: c.EPCPages})
	if err != nil {
		return Result{}, err
	}
	return resultFromSim(res[0].Result), nil
}

// Profile streams the workload's Train input through the SIP classifier
// and selects instrumentation sites at cfg.Threshold — the library
// equivalent of the paper's LLVM profiling-and-instrumentation pass. An
// access outside the workload's declared pages is an error.
func Profile(w Workload, cfg Config) (*Selection, error) {
	cfg = cfg.normalize()
	p, err := sip.ProfileStream(workloadStream(w, Train), cfg.EPCPages, w.Pages(), cfg.dfpConfig())
	if err != nil {
		return nil, fmt.Errorf("sgxpreload: workload %q: %w", w.Name(), err)
	}
	return &Selection{sel: sip.Select(p, cfg.Threshold, sip.MinSiteAccesses)}, nil
}

// Benchmarks returns the names of the built-in benchmark models (the
// paper's evaluation set).
func Benchmarks() []string { return workload.Names() }

// Benchmark returns a built-in benchmark model by its paper name (e.g.
// "lbm", "mcf", "deepsjeng", "SIFT", "mixed-blood", "microbenchmark").
func Benchmark(name string) (Workload, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return builtin{w}, nil
}

// Instrumentable reports whether the named built-in benchmark can be used
// with SIP (the paper's tool handles C/C++ only, and not omnetpp).
func Instrumentable(name string) bool {
	w, err := workload.ByName(name)
	return err == nil && w.Instrumentable
}

// builtin adapts an internal workload to the public interface.
type builtin struct {
	w *workload.Workload
}

func (b builtin) Name() string { return b.w.Name }

func (b builtin) Pages() uint64 { return b.w.ELRangePages() }

func (b builtin) Trace(in Input) []Access {
	accs := b.w.Generate(workload.Input(in))
	out := make([]Access, len(accs))
	for i, a := range accs {
		out[i] = Access{
			Site:    uint32(a.Site),
			Page:    uint64(a.Page),
			Compute: a.Compute,
			Write:   a.Write,
		}
	}
	return out
}
