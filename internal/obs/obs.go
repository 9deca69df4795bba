// Package obs is the engine's structured event-recording subsystem.
//
// The paper's two key mechanisms — the DFP-stop safety valve (§4.2) and
// the single non-preemptible load channel (§3.1, §5.6) — are temporal
// phenomena: end-of-run aggregates say *whether* the valve fired or *how
// many* preloads were dropped, but not when accuracy decayed, how long
// faults stalled behind the channel, or how contended the channel was
// over the run. This package defines the typed event stream the engine
// emits (package channel, kernel, dfp, and sim are all instrumented),
// a Recorder that collects it, deterministic JSONL/CSV exports, and a
// Summary that folds it, as it is emitted, into the derived metrics —
// channel utilization, fault-latency histogram, preload-accuracy series,
// EPC occupancy, per-stream lifecycles — that make paging-policy
// behavior debuggable.
//
// Observability is strictly opt-in: every emission site in the engine is
// guarded by a nil check on the installed Hook, so a run with no hook
// pays only untaken branches and the simulated virtual time is identical
// with and without a hook installed (the hook observes the run; it never
// participates in it).
package obs

import (
	"sgxpreload/internal/mem"
)

// Kind identifies an event type. The constants document which Event
// fields each kind populates; unused fields are zero.
type Kind uint8

// Event kinds. "T" below is the event's virtual-cycle timestamp.
const (
	// KindNone is the zero Kind; never emitted.
	KindNone Kind = iota

	// KindFaultBegin: an enclave page fault was raised.
	// T = fault cycle; Page = faulting page.
	KindFaultBegin
	// KindFaultEnd: the faulting thread resumed inside the enclave.
	// T = resume cycle; Page = faulting page; V1 = fault latency in
	// cycles (resume - raise); V2 = a FaultClass.
	KindFaultEnd

	// KindPreloadQueue: a predicted page was handed to the preload
	// worker. T = eligible-from cycle; Page = page; Batch = prediction
	// batch tag.
	KindPreloadQueue
	// KindLoadStart: a transfer occupied the load channel.
	// T = start cycle; Page = page (mem.NoPage for a background
	// write-back burst); Batch = batch tag (0 for demand loads);
	// V1 = completion cycle; V2 = 1 for a speculative (preload)
	// transfer, 0 for a demand transfer.
	KindLoadStart
	// KindLoadComplete: the channel retired a transfer.
	// T = completion cycle; Page, Batch, V2 as in KindLoadStart.
	KindLoadComplete
	// KindPreloadAbort: a queued preload was dropped before starting.
	// T = drop cycle; Page = page; Batch = batch tag; V1 = an
	// AbortReason.
	KindPreloadAbort

	// KindEvict: a victim page was written back (EWB).
	// T = eviction cycle; Page = victim; V1 = 1 when evicted by the
	// background reclaimer, 0 on the synchronous fault path.
	KindEvict

	// KindSIPNotify: a SIP preload notification was serviced.
	// T = notify cycle; Page = page; V1 = wait latency in cycles;
	// V2 = a NotifyClass.
	KindSIPNotify

	// KindScan: the service thread scanned the EPC.
	// T = scan cycle; V1 = preloaded pages found accessed by this scan;
	// V2 = resident EPC frames at scan time.
	KindScan
	// KindAccuracy: the DFP accuracy counters after a scan.
	// T = scan cycle; V1 = PreloadCounter; V2 = AccPreloadCounter.
	KindAccuracy
	// KindDFPStop: the global abort (safety valve) fired.
	// T = trip cycle; V1 = PreloadCounter; V2 = AccPreloadCounter.
	KindDFPStop

	// KindStreamStart: the predictor opened a new stream.
	// Page = first page; Batch = stream id.
	KindStreamStart
	// KindStreamHit: a fault extended a recognized stream.
	// Page = faulting page; Batch = stream id; V1 = pages predicted.
	KindStreamHit
	// KindStreamEnd: a stream was evicted from the LRU stream list.
	// Batch = stream id; V1 = faults that extended it over its life.
	KindStreamEnd

	// KindQuotaRebalance: the EPC quota arbiter adopted a new partition.
	// One event per enclave, emitted in enclave-index order at each
	// rebalance (and once per enclave at admission under any non-global
	// policy). Batch = enclave index; V1 = the enclave's new frame
	// quota; V2 = its resident frame count at that instant. Only emitted
	// when a non-global quota policy is active, so default traces are
	// byte-identical to earlier schema revisions.
	KindQuotaRebalance

	kindCount // number of kinds; keep last
)

// String returns the event kind's wire name (used in JSONL/CSV output).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

var kindNames = [...]string{
	KindNone:           "none",
	KindFaultBegin:     "fault_begin",
	KindFaultEnd:       "fault_end",
	KindPreloadQueue:   "preload_queue",
	KindLoadStart:      "load_start",
	KindLoadComplete:   "load_complete",
	KindPreloadAbort:   "preload_abort",
	KindEvict:          "evict",
	KindSIPNotify:      "sip_notify",
	KindScan:           "scan",
	KindAccuracy:       "accuracy",
	KindDFPStop:        "dfp_stop",
	KindStreamStart:    "stream_start",
	KindStreamHit:      "stream_hit",
	KindStreamEnd:      "stream_end",
	KindQuotaRebalance: "quota_rebalance",
}

// maxWireName bounds the length of a kind's wire name.
const maxWireName = 16

// wireBucket holds the emitted kinds whose wire names share one length.
// pos is a byte offset at which those names all differ, so the byte
// there picks the only candidate.
type wireBucket struct {
	pos  int
	kind [256]Kind // KindNone: no name of this length has that byte at pos
}

// wireIndex is the wire-name → Kind reverse index the trace decoders use,
// bucketed by name length and built once from kindNames. A lookup is
// one byte load and one string compare, with no hashing.
var wireIndex = func() (idx [maxWireName + 1]wireBucket) {
	var byLen [maxWireName + 1][]Kind
	for k := KindFaultBegin; k < kindCount; k++ {
		n := len(kindNames[k])
		if n == 0 || n > maxWireName {
			panic("obs: wire name " + kindNames[k] + " has no index bucket")
		}
		byLen[n] = append(byLen[n], k)
	}
	for n, kinds := range byLen {
		idx[n].pos = distinctPos(kinds, n)
		for _, k := range kinds {
			idx[n].kind[kindNames[k][idx[n].pos]] = k
		}
	}
	return idx
}()

// distinctPos returns the first byte offset below n at which the wire
// names of kinds are pairwise distinct.
func distinctPos(kinds []Kind, n int) int {
	for pos := 0; pos < n; pos++ {
		var seen [256]bool
		distinct := true
		for _, k := range kinds {
			c := kindNames[k][pos]
			distinct = distinct && !seen[c]
			seen[c] = true
		}
		if distinct {
			return pos
		}
	}
	if len(kinds) > 1 {
		panic("obs: no one byte offset tells apart the wire names as long as " + kindNames[kinds[0]])
	}
	return 0
}

// KindByWire resolves a wire name (as the trace encoders write it) back
// to its Kind. The second result is false for unknown names and for
// "none", which is never emitted. It neither allocates nor hashes, so
// the trace decoders resolve kinds without per-line garbage.
func KindByWire(name []byte) (Kind, bool) {
	n := len(name)
	if n == 0 || n > maxWireName {
		return KindNone, false
	}
	b := &wireIndex[n]
	if k := b.kind[name[b.pos]]; k != KindNone && string(name) == kindNames[k] {
		return k, true
	}
	return KindNone, false
}

// Kinds returns every emitted kind in declaration order; reports iterate
// it so their output is deterministic.
func Kinds() []Kind {
	out := make([]Kind, 0, kindCount-1)
	for k := KindFaultBegin; k < kindCount; k++ {
		out = append(out, k)
	}
	return out
}

// FaultClass is KindFaultEnd's V2: how the fault was resolved.
const (
	// FaultDemand: the handler performed the ELDU itself.
	FaultDemand uint64 = iota
	// FaultPresentOnArrival: a preload completed during the AEX.
	FaultPresentOnArrival
	// FaultInflightWait: the page was mid-transfer; the handler waited.
	FaultInflightWait
	// FaultInWindowAbort: the fault hit a predicted-but-unstarted page
	// and cancelled the remainder of its batch before demand-loading.
	FaultInWindowAbort
)

// NotifyClass is KindSIPNotify's V2: how the notification was resolved.
const (
	// NotifyLoaded: the kernel demand-loaded the page.
	NotifyLoaded uint64 = iota
	// NotifyResident: the page was already resident.
	NotifyResident
	// NotifyInflight: the page was mid-transfer; the thread waited.
	NotifyInflight
)

// AbortReason is KindPreloadAbort's V1: why a queued preload died.
const (
	// AbortOverflow: a stale batch was pushed out past MaxPending.
	AbortOverflow uint64 = 1
	// AbortInWindow: a fault landed in the predicted window and
	// cancelled the batch remainder.
	AbortInWindow uint64 = 2
	// AbortSIP: a SIP notification demand-loaded the queued page.
	AbortSIP uint64 = 3
	// AbortStop: the DFP-stop global abort abandoned the backlog.
	AbortStop uint64 = 4
)

// Event is one engine occurrence on the virtual timeline. The field
// meanings per kind are documented on the Kind constants.
type Event struct {
	// T is the virtual-cycle timestamp.
	T uint64
	// Kind is the event type.
	Kind Kind
	// Page is the subject page, or mem.NoPage when not applicable.
	Page mem.PageID
	// Batch tags a prediction batch or stream, 0 when not applicable.
	Batch uint64
	// V1 and V2 are kind-specific values.
	V1, V2 uint64
}

// Hook receives engine events. Implementations must not retain pointers
// into the engine and must be cheap: the engine calls Emit synchronously
// from its hot paths. A nil Hook disables observability entirely — every
// emission site nil-checks before constructing its event.
type Hook interface {
	Emit(e Event)
}

// clocked stamps events whose T is zero with the driver's current
// virtual time. The DFP predictor has no clock of its own (it sees only
// the fault-page sequence), so the kernel wraps the run's hook with its
// clock before handing it to the predictor.
type clocked struct {
	h   Hook
	now *uint64
}

// Clocked returns a Hook that forwards to h after stamping zero
// timestamps from *now. The pointer is read at Emit time; the engine is
// single-goroutine per run, so no synchronization is needed.
func Clocked(h Hook, now *uint64) Hook {
	return clocked{h: h, now: now}
}

func (c clocked) Emit(e Event) {
	if e.T == 0 {
		e.T = *c.now
	}
	c.h.Emit(e)
}

// Tee fans events out to several hooks in order; nil entries are
// skipped. It returns nil when no non-nil hook remains, so callers can
// keep the nil-disables-everything convention.
func Tee(hooks ...Hook) Hook {
	live := make([]Hook, 0, len(hooks))
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Hook

func (t tee) Emit(e Event) {
	for _, h := range t {
		h.Emit(e)
	}
}
