// Package core defines the paper's contribution as a composable library:
// the preloading abstractions that the kernel model plugs into.
//
// The paper's §4.1 is explicit that DFP's multiple-stream recognizer is
// one point in a design space — "many complex strategies can be
// implemented that include heuristic schemes or even machine learning
// based schemes". This package fixes the contract such strategies must
// satisfy (Predictor) and provides a registry of the implemented ones, so
// the ablation experiments can swap recognizers without touching the
// kernel.
package core

import (
	"fmt"
	"sort"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/mem"
)

// Predictor consumes the enclave page-fault history — the only dynamic
// signal SGX exposes to the untrusted OS — and produces preload batches.
//
// The kernel invokes OnFault from the fault handler with the faulting
// page number and queues whatever it returns onto the preload worker. The
// accuracy-counter methods back the DFP-stop safety valve: the service
// thread reports preloads issued and preloads observed accessed, and
// EvaluateStop lets the predictor shut itself down when accuracy
// collapses. A stopped predictor must return nil from OnFault forever.
type Predictor interface {
	// Name identifies the strategy in reports.
	Name() string
	// OnFault observes a fault on npn and returns pages to preload.
	OnFault(npn mem.PageID) []mem.PageID
	// NotePreloaded records n pages handed to the preload worker.
	NotePreloaded(n int)
	// NoteAccessed records n preloaded pages observed with their access
	// bit set.
	NoteAccessed(n int)
	// EvaluateStop applies the safety-valve formula and reports whether
	// the predictor is (now) stopped.
	EvaluateStop() bool
	// Stopped reports whether the safety valve has fired.
	Stopped() bool
	// PreloadCounter and AccPreloadCounter expose the safety valve's
	// inputs for reporting.
	PreloadCounter() uint64
	AccPreloadCounter() uint64
}

// The paper's predictor satisfies the contract.
var _ Predictor = (*dfp.Predictor)(nil)

// Kind names a registered predictor strategy.
type Kind string

// Registered strategies.
const (
	// KindMultiStream is the paper's Algorithm 1: an LRU list of
	// sequential stream tails (the evaluated configuration).
	KindMultiStream Kind = "multistream"
	// KindStride generalizes stream recognition to constant non-unit
	// strides.
	KindStride Kind = "stride"
	// KindMarkov is a correlation predictor: it remembers fault-to-fault
	// transitions and preloads the recorded successors.
	KindMarkov Kind = "markov"
	// KindNextN preloads the next N pages on every fault, with no history
	// at all — the strawman that shows why recognition matters.
	KindNextN Kind = "nextn"
)

// Kinds returns the registered strategy names, sorted.
func Kinds() []Kind {
	out := []Kind{KindMarkov, KindMultiStream, KindNextN, KindStride}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NewPredictor builds a predictor of the given kind sharing DFP's tunables
// (stream-list length doubles as table capacity for the alternatives;
// LoadLength is the preload distance for all of them).
func NewPredictor(kind Kind, cfg dfp.Config) (Predictor, error) {
	switch kind {
	case KindMultiStream:
		return dfp.New(cfg)
	case KindStride:
		return dfp.NewStride(cfg)
	case KindMarkov:
		return dfp.NewMarkov(cfg)
	case KindNextN:
		return dfp.NewNextN(cfg)
	default:
		return nil, fmt.Errorf("core: unknown predictor kind %q (have %v)", kind, Kinds())
	}
}
