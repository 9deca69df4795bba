package sgxpreload

import (
	"fmt"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/workload"
)

// Streaming API. Run materializes the whole trace before simulating;
// RunStream instead pulls accesses one at a time, so peak memory is
// independent of trace length — hour-long or synthetic unbounded
// workloads simulate in O(1) space. Built-in benchmarks stream via
// Stream (their generators run as coroutines suspended between
// fixed-size chunks, O(chunk) memory); custom
// workloads implement Streamer or hand any AccessStream to RunStream.

// AccessStream is a pull-based access source: Next returns the next
// access, or ok=false when the trace is exhausted. Implementations need
// not be restartable; obtain a fresh stream per run.
type AccessStream interface {
	Next() (Access, bool)
}

// Streamer is optionally implemented by workloads that can produce
// their trace incrementally instead of materializing it. Built-in
// benchmarks implement it.
type Streamer interface {
	// Stream returns a fresh pull-based source over the same accesses
	// Trace(in) would return.
	Stream(in Input) AccessStream
}

// StreamFunc adapts a function to AccessStream.
type StreamFunc func() (Access, bool)

// Next implements AccessStream.
func (f StreamFunc) Next() (Access, bool) { return f() }

// LimitStream caps src at n accesses — the standard way to bound an
// unbounded generator for a finite run. When src holds resources (a
// built-in benchmark's Stream runs a generator coroutine), the capped
// stream releases it as soon as it reports the end, and its Close
// method releases it early; such a src cannot be read past the cap.
func LimitStream(src AccessStream, n uint64) AccessStream {
	return publicStream{mem.Limit(internalStream{src}, n)}
}

// RunStream replays accesses pulled from src under cfg, on an enclave of
// the given virtual range. Accesses outside the range fail the run, as
// with a materialized workload trace. The engine looks one access ahead;
// everything else about the simulation — scheme wiring, cost model,
// results — is identical to Run.
func RunStream(src AccessStream, pages uint64, cfg Config) (Result, error) {
	if src == nil {
		return Result{}, fmt.Errorf("sgxpreload: RunStream needs a stream")
	}
	if pages == 0 {
		return Result{}, fmt.Errorf("sgxpreload: RunStream needs the enclave page range")
	}
	return cfg.runSolo(sim.Enclave{Stream: internalStream{src}, Pages: pages})
}

// RunWorkloadStream replays the workload's input through the streaming
// engine: the Streamer path when the workload implements it, and a
// slice-backed stream over Trace(in) otherwise (correct, but without the
// memory benefit).
func RunWorkloadStream(w Workload, in Input, cfg Config) (Result, error) {
	if s, ok := w.(Streamer); ok {
		return RunStream(s.Stream(in), w.Pages(), cfg)
	}
	accs := w.Trace(in)
	i := 0
	return RunStream(StreamFunc(func() (Access, bool) {
		if i >= len(accs) {
			return Access{}, false
		}
		a := accs[i]
		i++
		return a, true
	}), w.Pages(), cfg)
}

// internalStream presents a public AccessStream to the engine,
// converting accesses on the fly (bounds are checked by the engine at
// execution time) and forwarding Close to src when src has one.
type internalStream struct{ src AccessStream }

func (s internalStream) Next() (mem.Access, bool) {
	a, ok := s.src.Next()
	if !ok {
		return mem.Access{}, false
	}
	return mem.Access{
		Site:    mem.SiteID(a.Site),
		Page:    mem.PageID(a.Page),
		Compute: a.Compute,
		Write:   a.Write,
	}, true
}

func (s internalStream) Close() { mem.Close(s.src) }

// publicStream presents an internal stream as an AccessStream, and
// forwards Close to it.
type publicStream struct{ src mem.Stream }

func (s publicStream) Next() (Access, bool) {
	a, ok := s.src.Next()
	if !ok {
		return Access{}, false
	}
	return Access{
		Site:    uint32(a.Site),
		Page:    uint64(a.Page),
		Compute: a.Compute,
		Write:   a.Write,
	}, true
}

// Close releases the stream's resources (a generator coroutine) before
// it is drained; a drained stream holds none.
func (s publicStream) Close() { mem.Close(s.src) }

// resultFromSim converts an internal result to the public form.
func resultFromSim(res sim.Result) Result {
	return Result{
		Scheme:          Scheme(res.Scheme),
		Cycles:          res.Cycles,
		Accesses:        res.Accesses,
		Hits:            res.Hits,
		Faults:          res.Kernel.DemandFaults,
		PreloadsStarted: res.Kernel.PreloadsStarted,
		PreloadsDropped: res.Kernel.PreloadsDropped,
		NotifyLoads:     res.Kernel.NotifyLoads,
		StopFired:       res.Kernel.DFPStopped,
	}
}

// Stream implements Streamer for built-in benchmarks: the workload
// generator runs as a coroutine suspended between fixed-size chunks of
// accesses, in O(chunk) memory. The stream releases it when drained,
// capped by LimitStream, or closed.
func (b builtin) Stream(in Input) AccessStream {
	return publicStream{b.w.Stream(workload.Input(in))}
}
