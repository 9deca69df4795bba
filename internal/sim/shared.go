package sim

import (
	"sgxpreload/internal/core"
	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sip"
)

// Multi-enclave co-simulation. The paper's §5.6 observes that EPC sharing
// among processes is supported by the hardware and that "each enclave can
// handle its preloading independently... however, EPC contention becomes
// a serious issue". RunShared models exactly that: N enclaves, each with
// its own fault history, preload queue, instrumentation, bitmap view,
// and counters, contending for one physical EPC and one load channel.
// Each enclave's virtual pages are mapped into a disjoint slice of the
// shared page space.
//
// A solo run is the N = 1 case: RunShared over a one-enclave slice. Every
// scheme knob — the predictor strategy, DFP tunables, SIP selection,
// background reclaim — is therefore set per enclave, the same way alone
// and under contention.

// Enclave describes one co-running enclave.
type Enclave struct {
	// Name labels the enclave in results.
	Name string
	// Trace is the enclave's materialized access trace (pages relative to
	// its own ELRANGE, i.e. starting at 0). When non-nil it takes
	// precedence over Stream.
	Trace []mem.Access
	// Stream is the enclave's pull-based access source, consumed one
	// access at a time in O(1) memory; used when Trace is nil. Pages are
	// relative to the enclave's ELRANGE, like Trace.
	Stream mem.Stream
	// Pages is the enclave's ELRANGE size; every trace page must be
	// below it.
	Pages uint64
	// Scheme is the enclave's preloading configuration.
	Scheme Scheme
	// DFP tunables for DFP-style schemes (zero value = paper defaults).
	// The Stop field is forced on for DFPStop and Hybrid.
	DFP dfp.Config
	// Selection carries the enclave's SIP instrumentation sites.
	Selection *sip.Selection
	// Predictor selects the fault-history strategy for DFP-style
	// schemes; the zero value is the paper's multiple-stream recognizer.
	// Used by the predictor ablation.
	Predictor core.Kind
	// BackgroundReclaim enables this enclave's ksgxswapd-style watermark
	// reclaimer (see kernel.Config); its write-back bursts occupy the
	// shared channel.
	BackgroundReclaim bool
}

// SharedConfig configures the shared platform.
type SharedConfig struct {
	// Costs is the cycle cost model (zero = defaults).
	Costs mem.CostModel
	// EPCPages is the total physical EPC shared by all enclaves.
	EPCPages int
	// ScanPeriod passes through to each enclave's kernel; zero selects
	// the default.
	ScanPeriod uint64
	// EvictPolicy selects the EPC victim-selection algorithm; the zero
	// value is the driver's CLOCK. Used by the eviction ablation.
	EvictPolicy epc.Policy
	// Quota selects the per-enclave EPC quota policy (see package
	// arbiter). The zero value, Global, keeps the single victim scan
	// over all frames — byte-identical to runs predating the arbiter.
	// Under any other policy each engine (one per EPC domain) builds its
	// own arbiter, enclaves register in admission order, and rebalances
	// happen at scan boundaries — all on the engine's single goroutine,
	// so quota trajectories are deterministic at any worker count.
	Quota arbiter.Policy
	// Hook, when non-nil, receives every enclave's event timeline (see
	// package obs): faults, channel transfers, preload queue/abort,
	// evictions, service scans, DFP accuracy and stop, predictor stream
	// lifecycles. Pages in shared-run events are global — each enclave's
	// slice of the shared space — so the enclaves remain distinguishable
	// on one timeline. A nil Hook costs only untaken branches, and the
	// simulated virtual time is identical with and without a hook.
	Hook obs.Hook
	// HookFactory, when non-nil, supplies one hook per EPC domain: the
	// fleet layer calls it once per host index, so each domain records
	// to its own recorder with no cross-domain interleaving — the
	// multi-domain recording path the single Hook field cannot provide.
	// Exactly one of Hook and HookFactory may be set; the factory must be
	// pure (same host, same hook) for runs to stay deterministic at any
	// worker count. Engines
	// themselves reject an unresolved factory: by the time a SharedConfig
	// reaches New, the domain's hook must be concrete.
	HookFactory func(shard int) obs.Hook
}

// SharedResult is one enclave's outcome of a shared run.
type SharedResult struct {
	Name string
	Result
}

// RunShared co-simulates the enclaves on one shared EPC: it builds the
// Engine and drives it to completion. Enclaves advance in global
// virtual-time order (the enclave with the smallest clock executes its
// next access), so channel serialization and evictions interleave
// exactly as a time-sliced platform would interleave them.
func RunShared(enclaves []Enclave, cfg SharedConfig) ([]SharedResult, error) {
	eng, err := New(enclaves, cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.Drain(); err != nil {
		return nil, err
	}
	return eng.Results(), nil
}
