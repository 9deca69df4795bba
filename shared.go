package sgxpreload

import (
	"fmt"

	"sgxpreload/internal/core"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
)

// Multi-enclave API. SGX shares the physical EPC among all enclaves on a
// machine (the paper's §5.6); RunShared co-simulates several workloads on
// one EPC and one load channel, with per-enclave preloading.

// EnclaveSpec configures one enclave of a shared run.
type EnclaveSpec struct {
	// Workload is the enclave's program.
	Workload Workload
	// Scheme is the enclave's preloading configuration.
	Scheme Scheme
	// Selection carries the enclave's SIP instrumentation sites (from
	// Profile); required when Scheme uses SIP.
	Selection *Selection
	// DFP overrides the predictor tunables (zero value = paper defaults).
	DFP DFPConfig
	// Predictor names this enclave's fault-history strategy for DFP-style
	// schemes: "multistream" (the paper's recognizer, also the default ""),
	// "stride", "markov", or "nextn". Unknown names fail the run.
	Predictor string
	// BackgroundReclaim enables this enclave's ksgxswapd-style watermark
	// reclaimer; its write-back bursts occupy the shared load channel.
	BackgroundReclaim bool
}

// SharedResult is one enclave's outcome of a shared run.
type SharedResult struct {
	// Name is the workload's name.
	Name string
	Result
}

// RunShared co-simulates the enclaves' Ref traces on one shared EPC of
// cfg.EPCPages frames, pulling each from its workload as the engine runs.
// Each enclave keeps its own fault history, preload queue, and counters;
// evictions and load-channel serialization are global, so the results
// expose EPC contention. An access outside its workload's declared pages
// fails the run with an error naming the workload, the access index and
// the page.
func RunShared(enclaves []EnclaveSpec, cfg Config) ([]SharedResult, error) {
	cfg = cfg.normalize()
	if len(enclaves) == 0 {
		return nil, fmt.Errorf("sgxpreload: RunShared needs at least one enclave")
	}
	specs := make([]sim.Enclave, len(enclaves))
	for i, e := range enclaves {
		if e.Workload == nil {
			for _, made := range specs[:i] {
				mem.Close(made.Stream)
			}
			return nil, fmt.Errorf("sgxpreload: enclave %d has no workload", i)
		}
		specs[i] = sim.Enclave{
			Name:              e.Workload.Name(),
			Stream:            workloadStream(e.Workload, Ref),
			Pages:             e.Workload.Pages(),
			Scheme:            sim.Scheme(e.Scheme),
			DFP:               dfpFromPublic(e.DFP),
			Predictor:         core.Kind(e.Predictor),
			BackgroundReclaim: e.BackgroundReclaim,
		}
		if e.Selection != nil {
			specs[i].Selection = e.Selection.sel
		}
	}
	res, err := sim.RunShared(specs, sim.SharedConfig{
		Costs:    cfg.Costs,
		EPCPages: cfg.EPCPages,
	})
	if err != nil {
		return nil, err
	}
	out := make([]SharedResult, len(res))
	for i, r := range res {
		out[i] = SharedResult{Name: r.Name, Result: resultFromSim(r.Result)}
	}
	return out, nil
}

// dfpFromPublic maps the public tunables onto the internal config,
// filling paper defaults.
func dfpFromPublic(d DFPConfig) (out dfpConfig) {
	out = defaultDFP()
	if d.StreamListLen > 0 {
		out.StreamListLen = d.StreamListLen
	}
	if d.LoadLength > 0 {
		out.LoadLength = d.LoadLength
	}
	if d.StopSlack > 0 {
		out.StopSlack = d.StopSlack
	}
	return out
}
