// Package kernel models the untrusted operating system side of the SGX
// paging protocol: the enclave page-fault handler of the Intel SGX driver,
// the asynchronous preload worker added by DFP, the SIP notification
// syscall, and the access-bit-scanning service thread.
//
// The kernel is handed the EPC and the load channel (shared with every
// other enclave's kernel on the same platform) and, when DFP is enabled,
// the fault-history predictor; it is driven by the simulation engine
// through four operations, each of which takes and returns virtual time:
//
//   - Sync(now): retire channel work that finished by now and start queued
//     preloads that could begin before now.
//   - HandleFault(now, page): the demand-fault path — AEX, evict-if-full,
//     ELDU, ERESUME — plus, with DFP, prediction and preload queuing.
//   - NotifyLoad(now, page): the SIP path — the page is loaded through the
//     same channel and eviction machinery, but the thread never leaves the
//     enclave, so AEX and ERESUME are not paid.
//   - MaybeScan(now): the periodic service-thread scan that maintains
//     DFP's preload-accuracy counters and applies the stop formula.
package kernel

import (
	"fmt"

	"sgxpreload/internal/channel"
	"sgxpreload/internal/core"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// Config configures the kernel model.
type Config struct {
	// Costs is the cycle cost model.
	Costs mem.CostModel
	// Predictor, when non-nil, enables fault-history-based preloading:
	// the paper's multiple-stream recognizer or an alternative strategy
	// behind the DFP-stop valve (see package core).
	Predictor *core.Predictor
	// ScanPeriod is the service thread's scan interval in cycles. The
	// driver's CLOCK service thread runs periodically; DFP piggybacks its
	// accuracy counters on that scan.
	ScanPeriod uint64
	// RangeLo and RangeHi bound the pages this enclave may preload in the
	// (possibly shared) EPC page space; zero values mean the EPC's whole
	// page space. Multi-enclave runs set them to the enclave's own slice,
	// so a prediction never preloads another enclave's pages. The service
	// scan needs no bound: it counts the frames stamped with Owner.
	RangeLo, RangeHi mem.PageID
	// BackgroundReclaim enables the real driver's ksgxswapd behavior: a
	// background thread keeps free EPC frames between two watermarks by
	// batch-evicting (EWB) off the fault path. With it on, a fault that
	// finds a free frame skips the synchronous eviction; the write-backs
	// instead occupy the channel in bursts from the service scan. Off by
	// default — the paper's measurements fold eviction into the fault
	// path, and the ablation quantifies the difference. The watermarks
	// are 1/32 and 1/16 of the EPC's capacity (see watermarks).
	BackgroundReclaim bool
	// Arbiter, when non-nil, arbitrates shared-EPC evictions between
	// enclaves by frame quota (see package arbiter): an enclave at or
	// over its quota evicts one of its own frames, an under-quota one
	// steals from the most over-quota owner. Nil — the default — keeps
	// the single global victim scan, bit-for-bit. All kernels over one
	// shared EPC must share one arbiter.
	Arbiter *arbiter.Arbiter
	// Owner is this kernel's enclave index with the shared EPC and the
	// arbiter (0 in solo runs): every page it loads is stamped with it.
	Owner int
	// Hook, when non-nil, receives the kernel's event timeline (faults,
	// loads, evictions, scans, DFP-stop; see package obs). The hook is
	// also installed on the load channel and — via a clock adapter — on
	// the DFP predictor. Every emission site is nil-checked, so a nil
	// Hook costs only untaken branches, and a hook never perturbs the
	// simulated virtual time.
	Hook obs.Hook
}

// MaxPending caps the preload worker's backlog. Predictions beyond the
// cap push out the stalest queued requests: an old list_to_load that the
// worker never reached is stale by construction. The cap also bounds the
// channel's membership scans.
const MaxPending = 64

// DefaultScanPeriod is the service thread interval used when Config leaves
// ScanPeriod zero: 2 ms of virtual time at the paper's 3.5 GHz clock.
const DefaultScanPeriod = 7_000_000

// Stats aggregates everything the kernel observed during a run.
type Stats struct {
	// DemandFaults counts enclave page faults serviced with a full
	// AEX + load + ERESUME round trip (including waits on in-flight
	// preloads, which still exit the enclave).
	DemandFaults uint64
	// PresentOnArrival counts faults that found their page already
	// resident after the AEX (a preload completed during the exit).
	PresentOnArrival uint64
	// InflightHits counts faults that found their page being preloaded and
	// only had to wait for the in-progress transfer.
	InflightHits uint64
	// InWindowAborts counts faults that hit a predicted-but-unstarted page
	// and cancelled the remainder of that prediction batch.
	InWindowAborts uint64
	// PreloadsQueued counts pages handed to the preload worker.
	PreloadsQueued uint64
	// PreloadsStarted counts preloads that actually occupied the channel.
	PreloadsStarted uint64
	// PreloadsDropped counts queued preloads dropped before starting by
	// backlog overflow, SIP removals and the DFP-stop shutdown. Requests an in-window batch abort drops are not counted:
	// InWindowAborts counts those faults, not the requests.
	PreloadsDropped uint64
	// NotifyLoads counts SIP notifications that triggered a page load.
	NotifyLoads uint64
	// NotifyHits counts SIP notifications that found the page already
	// resident or in flight by the time the kernel looked.
	NotifyHits uint64
	// Evictions counts EWB victim write-backs (synchronous and
	// background); BackgroundEvictions counts the background subset.
	Evictions           uint64
	BackgroundEvictions uint64
	// Scans counts service-thread scans.
	Scans uint64
	// AEXCycles, LoadWaitCycles, EresumeCycles, NotifyWaitCycles break the
	// fault-path time into its protocol components; LoadWaitCycles is the
	// time a faulting thread spent waiting on the channel (its own load
	// plus any non-preemptible transfer ahead of it).
	AEXCycles        uint64
	LoadWaitCycles   uint64
	EresumeCycles    uint64
	NotifyWaitCycles uint64
	// DFPStopped records whether the global abort fired, and DFPStopCycle
	// when (0 if never).
	DFPStopped   bool
	DFPStopCycle uint64
}

// Kernel is the untrusted-OS model. Construct with New.
type Kernel struct {
	cfg   Config
	epc   *epc.EPC
	ch    *channel.Channel
	pred  *core.Predictor // nil when preloading is disabled
	stats Stats

	nextScan uint64
	scratch  []mem.PageID // reusable prediction batch (see predict)

	hook obs.Hook // nil = observability disabled
	now  uint64   // clock mirror for predictor-emitted events
}

// New builds a kernel over an EPC and a load channel. Multiple kernels
// sharing one EPC and sibling channels (channel.Sibling) model multiple
// enclaves contending for the same physical EPC (the paper's §5.6): each
// enclave keeps its own fault history, preload queue, owner stamp and
// counters, while evictions and transfer serialization are global.
func New(cfg Config, e *epc.EPC, ch *channel.Channel) (*Kernel, error) {
	if err := cfg.Costs.Validate(); err != nil {
		return nil, err
	}
	if cfg.RangeHi == 0 {
		cfg.RangeHi = mem.PageID(e.Pages())
	}
	if cfg.RangeLo >= cfg.RangeHi {
		return nil, fmt.Errorf("kernel: empty page range [%d, %d)", cfg.RangeLo, cfg.RangeHi)
	}
	k := &Kernel{cfg: cfg, epc: e, ch: ch, hook: cfg.Hook, pred: cfg.Predictor}
	if k.hook != nil {
		ch.SetHook(k.hook)
		// The predictor sees only the fault-page sequence, so its
		// stream-lifecycle events are stamped by the kernel's clock.
		if k.pred != nil {
			k.pred.SetHook(obs.Clocked(k.hook, &k.now))
		}
	}
	if k.cfg.ScanPeriod == 0 {
		k.cfg.ScanPeriod = DefaultScanPeriod
	}
	k.nextScan = k.cfg.ScanPeriod
	return k, nil
}

// EPC exposes the enclave page cache (read-mostly; tests and the SIP
// runtime read its presence).
func (k *Kernel) EPC() *epc.EPC { return k.epc }

// Channel exposes the load channel for tests and tooling.
func (k *Kernel) Channel() *channel.Channel { return k.ch }

// Predictor returns the fault-history predictor, or nil when preloading
// is disabled.
func (k *Kernel) Predictor() *core.Predictor { return k.pred }

// Stats returns a snapshot of the counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Sync retires channel completions up to now and starts queued preloads
// whose transfer could begin strictly before now.
func (k *Kernel) Sync(now uint64) {
	for {
		if done, ok := k.ch.InflightDone(); ok {
			if done > now {
				return
			}
			k.retire()
			continue
		}
		req, ok := k.peekStartable(now)
		if !ok {
			return
		}
		k.beginLoad(req.Page, max(k.ch.BusyUntil(), req.Enqueued), req.Batch)
	}
}

// Horizon returns the first clock at which MaybeScan or Sync would act:
// at any now below it both are no-ops, so the engine may skip them until
// an access of this enclave changes kernel or channel state. It is the
// earliest of the next scan, the in-flight transfer's completion (while
// one is in flight Sync looks no further) and, with the server idle, the
// queued head's first startable clock. The load server is shared, so a
// horizon is only valid while no other enclave of the group runs.
func (k *Kernel) Horizon() uint64 {
	h := k.nextScan
	if done, ok := k.ch.InflightDone(); ok {
		return min(h, done)
	}
	if req, ok := k.ch.PeekPending(); ok {
		h = min(h, max(k.ch.BusyUntil(), req.Enqueued)+1)
	}
	return h
}

// peekStartable pops and returns the queued head when it could start
// before now. A head that is not yet startable is left in place —
// PeekPending makes the no-work case O(1), where the old pop-and-restore
// drained and rebuilt the whole queue on every non-startable Sync.
//
// A queued page is never resident: worthQueueing admits only absent
// pages, predicted batches hold no duplicates, and a demand or notify
// load removes its page from the queue before loading it. A violation
// panics in install.
func (k *Kernel) peekStartable(now uint64) (channel.Request, bool) {
	req, ok := k.ch.PeekPending()
	if !ok || max(k.ch.BusyUntil(), req.Enqueued) >= now {
		return channel.Request{}, false
	}
	k.ch.PopPending()
	return req, true
}

// beginLoad starts the queued preload of page at start, after the EWB
// eviction when the EPC is full. It is the only transfer left in the
// channel's in-flight slot; Sync retires it once it is done.
func (k *Kernel) beginLoad(page mem.PageID, start, batch uint64) {
	occ := k.cfg.Costs.Load + k.cfg.Costs.PreloadExtra + k.evictIfFull(start)
	k.stats.PreloadsStarted++
	if k.pred != nil {
		k.pred.NotePreloaded(1)
	}
	k.ch.Begin(page, start, occ, batch, k.cfg.Owner)
}

// evictIfFull writes one victim back (EWB) at start when the EPC has no
// free frame, and returns the channel occupancy that adds to the load
// behind it: the eviction cost, or 0 when no victim was needed. With the
// background reclaimer keeping watermarks this is the fallback for bursts
// that outrun it.
func (k *Kernel) evictIfFull(start uint64) uint64 {
	if !k.epc.Full() {
		return 0
	}
	victim := k.selectVictim()
	if victim == mem.NoPage {
		return 0
	}
	k.epc.Evict(victim)
	k.stats.Evictions++
	if k.hook != nil {
		k.hook.Emit(obs.Event{T: start, Kind: obs.KindEvict, Page: victim})
	}
	return k.cfg.Costs.Evict
}

// selectVictim picks the next eviction victim. With no arbiter (the
// default) it is exactly the global policy scan. With one, the arbiter
// names whose frame goes — this enclave's own when it is at or over
// quota, the most-over-quota owner's otherwise — and the owner-filtered
// scan picks the frame. If the named owner has nothing resident (its
// quota exceeds its current resident set — e.g. a quota below the
// enclave's minimum working set left it with no frames to give), the
// global scan decides, so an eviction always succeeds whenever any frame
// is occupied.
func (k *Kernel) selectVictim() mem.PageID {
	if k.cfg.Arbiter != nil {
		if o := k.cfg.Arbiter.VictimOwner(k.epc, k.cfg.Owner); o >= 0 {
			if v := k.epc.SelectVictimOwned(o); v != mem.NoPage {
				return v
			}
		}
	}
	return k.epc.SelectVictim()
}

// retire ends the in-flight preload and installs its page under the
// owner that began it, which may be another enclave of the channel group.
func (k *Kernel) retire() {
	page, owner := k.ch.Retire()
	k.install(page, owner, true)
}

// install puts a transferred page into the EPC, stamped with owner.
func (k *Kernel) install(page mem.PageID, owner int, preload bool) {
	if err := k.epc.Load(page, owner, preload); err != nil {
		// The eviction before the transfer guaranteed a free frame and
		// the page was absent when it was queued or faulted; any failure
		// is a simulator bug, not a runtime condition.
		panic("kernel: install failed: " + err.Error())
	}
}

// HandleFault services an enclave page fault on page raised at cycle now.
// It returns the cycle at which the application resumes inside the
// enclave. The page is guaranteed resident (and touched) at return.
func (k *Kernel) HandleFault(now uint64, page mem.PageID) uint64 {
	k.stats.DemandFaults++
	k.stats.AEXCycles += k.cfg.Costs.AEX
	if k.cfg.Arbiter != nil {
		// Demand faults are half of the adaptive policy's working-set
		// signal (the other half is the scan's access-bit count).
		k.cfg.Arbiter.NoteFault(k.cfg.Owner)
	}
	if k.hook != nil {
		k.hook.Emit(obs.Event{T: now, Kind: obs.KindFaultBegin, Page: page})
	}
	t := now + k.cfg.Costs.AEX
	k.Sync(t)

	var done uint64
	class := obs.FaultDemand
	switch {
	case k.epc.Present(page):
		// A preload completed while the thread was exiting.
		k.stats.PresentOnArrival++
		class = obs.FaultPresentOnArrival
		done = t
	case k.ch.InflightPage() == page:
		// The page is mid-transfer; the handler can only wait — the load
		// channel is non-preemptible.
		k.stats.InflightHits++
		class = obs.FaultInflightWait
		done = k.ch.BusyUntil()
		k.stats.LoadWaitCycles += done - t
		k.Sync(done)
	default:
		if k.ch.AbortBatchContaining(page, t) {
			// The fault landed inside a predicted-but-unloaded window:
			// the paper aborts the remainder of that prediction and
			// demand-loads the page.
			k.stats.InWindowAborts++
			class = obs.FaultInWindowAbort
		}
		done = k.loadNow(t, page)
		k.stats.LoadWaitCycles += done - t
	}

	resume := done + k.cfg.Costs.Eresume
	k.stats.EresumeCycles += k.cfg.Costs.Eresume
	k.epc.Touch(page)
	if k.hook != nil {
		k.hook.Emit(obs.Event{T: resume, Kind: obs.KindFaultEnd, Page: page,
			V1: resume - now, V2: class})
		k.now = resume // stamp for predictor stream events
	}
	k.predict(page, resume)
	return resume
}

// loadNow performs a synchronous load (ELDU) of page requested at t — the
// demand-fault and SIP-notify paths — and returns the cycle it completes.
// The load takes the channel as soon as the (non-preemptible) in-progress
// transfer finishes, jumping ahead of any queued preloads: the requester
// performs the ELDU itself, while the preload worker runs at lower
// priority. The requester holds the channel for the whole ELDU, so the
// load is one synchronous Transfer.
func (k *Kernel) loadNow(t uint64, page mem.PageID) uint64 {
	if !k.ch.Idle() {
		k.retire()
	}
	start := max(t, k.ch.BusyUntil())
	done := k.ch.Transfer(page, start, k.cfg.Costs.Load+k.evictIfFull(start))
	k.install(page, k.cfg.Owner, false)
	return done
}

// worthQueueing reports whether a preload of page is worth queueing: it
// lies inside this enclave's slice of the (possibly shared) page space —
// so neither a stream running past the mapped range nor a shared-EPC run
// can preload into another enclave's pages — and is not resident, in
// flight or already queued.
func (k *Kernel) worthQueueing(page mem.PageID) bool {
	return page >= k.cfg.RangeLo && page < k.cfg.RangeHi &&
		!k.epc.Present(page) && k.ch.InflightPage() != page && !k.ch.PendingContains(page)
}

// predict feeds the fault to the DFP predictor and queues the resulting
// batch. The batch becomes eligible when the faulting thread resumes: the
// preload worker is woken by the fault handler and runs after it.
func (k *Kernel) predict(page mem.PageID, resume uint64) {
	if k.pred == nil || k.pred.Stopped() {
		return
	}
	predicted := k.pred.OnFault(page)
	if len(predicted) == 0 {
		return
	}
	// QueueBatch copies the pages into Requests, so the scratch buffer can
	// be reused fault after fault instead of allocating a fresh batch.
	batch := k.scratch[:0]
	for _, p := range predicted {
		if k.worthQueueing(p) {
			batch = append(batch, p)
		}
	}
	k.scratch = batch
	if len(batch) == 0 {
		return
	}
	k.stats.PreloadsQueued += uint64(len(batch))
	dropped := k.ch.QueueBatch(batch, resume, MaxPending)
	k.stats.PreloadsDropped += uint64(dropped)
}

// NotifyLoad services a SIP preload notification for page issued at cycle
// now (the caller has already charged the bitmap check and notify costs).
// It returns the cycle at which the page is resident and the application
// may proceed — without ever leaving the enclave.
func (k *Kernel) NotifyLoad(now uint64, page mem.PageID) uint64 {
	k.Sync(now)

	var done uint64
	class := obs.NotifyLoaded
	switch {
	case k.epc.Present(page):
		k.stats.NotifyHits++
		class = obs.NotifyResident
		done = now
	case k.ch.InflightPage() == page:
		k.stats.NotifyHits++
		class = obs.NotifyInflight
		done = k.ch.BusyUntil()
		k.stats.NotifyWaitCycles += done - now
		k.Sync(done)
	default:
		if k.ch.RemovePending(page, now) {
			k.stats.PreloadsDropped++
		}
		done = k.loadNow(now, page)
		k.stats.NotifyLoads++
		k.stats.NotifyWaitCycles += done - now
	}
	k.epc.Touch(page)
	if k.hook != nil {
		k.hook.Emit(obs.Event{T: now, Kind: obs.KindSIPNotify, Page: page,
			V1: done - now, V2: class})
	}
	return done
}

// QueuePrefetch posts an asynchronous load request for page: the preload
// worker will bring it in when the channel is free, and the requester does
// not wait. This is the early-notification path of the eager-SIP ablation;
// it reuses the preload queue, so demand faults still take priority.
func (k *Kernel) QueuePrefetch(now uint64, page mem.PageID) {
	if !k.worthQueueing(page) {
		return
	}
	k.stats.PreloadsQueued++
	dropped := k.ch.QueueBatch([]mem.PageID{page}, now, MaxPending)
	k.stats.PreloadsDropped += uint64(dropped)
}

// Touch records a resident-page access (sets the hardware access bit). It
// reports whether the page was resident.
func (k *Kernel) Touch(page mem.PageID) bool { return k.epc.Touch(page) }

// Present reports whether page is resident, from the OS's view.
func (k *Kernel) Present(page mem.PageID) bool { return k.epc.Present(page) }

// MaybeScan runs the service thread if its period elapsed by now. The scan
// counts preloaded pages whose access bit is set (AccPreloadCounter),
// clears their preload bits so each is counted once, and applies the
// DFP-stop formula.
func (k *Kernel) MaybeScan(now uint64) {
	if now < k.nextScan {
		return
	}
	k.nextScan = now + k.cfg.ScanPeriod
	k.stats.Scans++
	if k.cfg.BackgroundReclaim {
		k.backgroundReclaim(now)
	}
	if k.pred == nil {
		if k.hook != nil {
			k.hook.Emit(obs.Event{T: now, Kind: obs.KindScan,
				V2: uint64(k.epc.Resident())})
		}
		k.arbiterScan(now)
		return
	}
	accessed := k.epc.ClearAccessedPreloads(k.cfg.Owner)
	k.pred.NoteAccessed(accessed)
	if k.hook != nil {
		k.hook.Emit(obs.Event{T: now, Kind: obs.KindScan,
			V1: uint64(accessed), V2: uint64(k.epc.Resident())})
		k.hook.Emit(obs.Event{T: now, Kind: obs.KindAccuracy,
			V1: k.pred.PreloadCounter(), V2: k.pred.AccPreloadCounter()})
	}
	if k.pred.EvaluateStop() && !k.stats.DFPStopped {
		k.stats.DFPStopped = true
		k.stats.DFPStopCycle = now
		if k.hook != nil {
			k.hook.Emit(obs.Event{T: now, Kind: obs.KindDFPStop,
				V1: k.pred.PreloadCounter(), V2: k.pred.AccPreloadCounter()})
		}
		// The preloading thread stops itself: whatever it had queued is
		// abandoned (the in-progress transfer still finishes — it is
		// non-preemptible).
		k.stats.PreloadsDropped += uint64(k.ch.AbortPending(now))
	}
	k.arbiterScan(now)
}

// arbiterScan feeds this enclave's access-bit count to the quota arbiter
// at its scan boundary and, when the adaptive policy adopts a new
// partition, emits the full quota vector in enclave-index order — the
// deterministic rebalance trace the report and replay layers consume.
func (k *Kernel) arbiterScan(now uint64) {
	arb := k.cfg.Arbiter
	if arb == nil {
		return
	}
	if !arb.NoteScan(k.cfg.Owner, k.epc.OwnerAccessed(k.cfg.Owner)) {
		return
	}
	k.EmitQuotaVector(now)
}

// EmitQuotaVector emits one KindQuotaRebalance event per enclave, in
// index order, carrying the enclave's quota and resident count: at a
// rebalance, and from Engine.Admit when an admission recomputes quotas.
func (k *Kernel) EmitQuotaVector(now uint64) {
	if k.hook == nil || k.cfg.Arbiter == nil {
		return
	}
	arb := k.cfg.Arbiter
	for i := 0; i < arb.N(); i++ {
		k.hook.Emit(obs.Event{T: now, Kind: obs.KindQuotaRebalance, Page: mem.NoPage,
			Batch: uint64(i), V1: uint64(arb.Quota(i)), V2: uint64(k.epc.OwnerResident(i))})
	}
}

// watermarks returns the background reclaimer's free-frame watermarks for
// an EPC of capacity frames: 1/32 and 1/16 of it, at least 1 and 2.
func watermarks(capacity int) (low, high int) {
	low = max(capacity/32, 1)
	return low, max(capacity/16, low+1)
}

// backgroundReclaim restores the free-frame pool to the high watermark,
// evicting victims in a batch. The EWB write-backs occupy the load
// channel (they use the same memory path), so the burst can delay a
// demand load — the trade the real ksgxswapd makes for a cheaper fault
// path.
func (k *Kernel) backgroundReclaim(now uint64) {
	low, high := watermarks(k.epc.Capacity())
	free := k.epc.Capacity() - k.epc.Resident()
	if free >= low {
		return
	}
	var batch uint64
	for free < high {
		victim := k.selectVictim()
		if victim == mem.NoPage {
			break
		}
		k.epc.Evict(victim)
		k.stats.Evictions++
		k.stats.BackgroundEvictions++
		if k.hook != nil {
			k.hook.Emit(obs.Event{T: now, Kind: obs.KindEvict, Page: victim, V1: 1})
		}
		free++
		batch++
	}
	if batch == 0 {
		return
	}
	// Occupy the channel with the write-back burst. If a transfer is in
	// progress the burst starts after it (non-preemptible either way).
	if !k.ch.Idle() {
		k.retire()
	}
	k.ch.Transfer(mem.NoPage, max(now, k.ch.BusyUntil()), batch*k.cfg.Costs.Evict)
}
