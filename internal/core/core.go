// Package core defines the paper's contribution as a composable library:
// the preloading abstractions that the kernel model plugs into.
//
// The paper's §4.1 is explicit that DFP's multiple-stream recognizer is
// one point in a design space — "many complex strategies can be
// implemented that include heuristic schemes or even machine learning
// based schemes". This package splits a preloader into the two parts the
// paper keeps apart: a Strategy that only predicts, and the DFP-stop
// safety valve of §4.2 that shuts any strategy down when its accuracy
// collapses. Predictor is the one composition of the two the kernel
// drives, and NewPredictor is the registry of implemented strategies, so
// the ablation experiments can swap recognizers without touching the
// kernel or the valve.
package core

import (
	"fmt"
	"sort"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// Strategy consumes the enclave page-fault history — the only dynamic
// signal SGX exposes to the untrusted OS — and produces preload batches.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// OnFault observes a fault on npn and returns pages to preload. The
	// result may alias a buffer the strategy reuses on its next call.
	OnFault(npn mem.PageID) []mem.PageID
}

// Predictor is a Strategy behind the DFP-stop safety valve (§4.2). The
// kernel invokes OnFault from the fault handler with the faulting page
// number and queues whatever it returns onto the preload worker; its
// service thread reports preloads issued (PreloadCounter) and preloads
// observed accessed (AccPreloadCounter), and EvaluateStop latches the
// predictor off when
//
//	AccPreloadCounter + StopSlack < PreloadCounter / 2
//
// holds. A stopped predictor returns nil from OnFault forever: the
// paper's preloading thread "stops itself" for the rest of the run. The
// valve is the same for every strategy.
type Predictor struct {
	strategy Strategy

	stop      bool   // dfp.Config.Stop: the valve is armed
	slack     uint64 // dfp.Config.StopSlack: the constant T
	preloaded uint64 // PreloadCounter: pages handed to the preload worker
	accessed  uint64 // AccPreloadCounter: preloaded pages seen accessed
	stopped   bool
}

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
// LoadLength is the preload distance for all of them). cfg.Stop arms the
// valve and cfg.StopSlack is its constant T.
func NewPredictor(kind Kind, cfg dfp.Config) (*Predictor, error) {
	var (
		s   Strategy
		err error
	)
	switch kind {
	case KindMultiStream:
		s, err = dfp.New(cfg)
	case KindStride:
		s, err = dfp.NewStride(cfg)
	case KindMarkov:
		s, err = dfp.NewMarkov(cfg)
	case KindNextN:
		s, err = dfp.NewNextN(cfg)
	default:
		return nil, fmt.Errorf("core: unknown predictor kind %q (have %v)", kind, Kinds())
	}
	if err != nil {
		return nil, err
	}
	return &Predictor{strategy: s, stop: cfg.Stop, slack: cfg.StopSlack}, nil
}

// Name identifies the strategy in reports.
func (p *Predictor) Name() string { return p.strategy.Name() }

// OnFault feeds a fault on npn to the strategy and returns its prediction,
// or nil once the valve has fired.
func (p *Predictor) OnFault(npn mem.PageID) []mem.PageID {
	if p.stopped {
		return nil
	}
	return p.strategy.OnFault(npn)
}

// SetHook installs h on a strategy that emits stream-lifecycle events
// (nil disables); strategies that emit none ignore it.
func (p *Predictor) SetHook(h obs.Hook) {
	if s, ok := p.strategy.(interface{ SetHook(obs.Hook) }); ok {
		s.SetHook(h)
	}
}

// NotePreloaded records that n pages were handed to the preload worker.
func (p *Predictor) NotePreloaded(n int) {
	if n > 0 {
		p.preloaded += uint64(n)
	}
}

// NoteAccessed records that n preloaded pages were observed with their
// access bit set by the service thread's scan.
func (p *Predictor) NoteAccessed(n int) {
	if n > 0 {
		p.accessed += uint64(n)
	}
}

// EvaluateStop applies the stop formula and latches the predictor off
// when it holds. It reports whether the predictor is (now) stopped; it
// has no effect unless the valve is armed.
func (p *Predictor) EvaluateStop() bool {
	if p.stop && !p.stopped && p.accessed+p.slack < p.preloaded/2 {
		p.stopped = true
	}
	return p.stopped
}

// Stopped reports whether the valve has fired.
func (p *Predictor) Stopped() bool { return p.stopped }

// PreloadCounter returns the pages handed to the preload worker.
func (p *Predictor) PreloadCounter() uint64 { return p.preloaded }

// AccPreloadCounter returns the preloaded pages observed accessed.
func (p *Predictor) AccPreloadCounter() uint64 { return p.accessed }
