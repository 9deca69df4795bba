package sim

import (
	"fmt"
	"math"

	"sgxpreload/internal/channel"
	"sgxpreload/internal/core"
	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/kernel"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sip"
)

// This file is the repository's one engine loop. RunShared drives it to
// completion, and a single-enclave run is the N = 1 case of the
// multi-enclave co-simulation, so every scheme knob — predictor
// strategy, DFP tunables, SIP selection, background reclaim — is wired
// exactly once (buildState) and is therefore available under EPC
// contention by construction.
//
// The engine is incremental: New builds it, each Step executes one
// access of the enclave whose virtual clock is smallest, and Results can
// be read at any point (a live metrics endpoint reads them mid-run).
// Drain and RunUntil execute the same accesses in the same order, in
// bursts: the earliest enclave keeps running while it would still be
// picked, the heap is re-keyed once per burst, and below its kernel's
// quiet horizon an access skips the scan and sync that would find
// nothing to do. Step, RunUntil and Drain share that one stepping body
// (burst). Input arrives through pull-based mem.Streams, and the engine
// looks exactly one access ahead per enclave, so a run's memory
// footprint is independent of trace length — unbounded generators drive
// unbounded runs in O(1) memory.

// Engine co-simulates N >= 1 enclaves round-robin over one shared EPC
// and one load-channel group. Construct with New (fixed cohort) or
// NewDynamic (enclaves join mid-run via Admit), drive with Step. The
// shared page-space size lives only in the EPC, and an admission either
// builds its enclave or changes nothing.
type Engine struct {
	states []*enclaveState
	// sched is the event heap over runnable enclaves, keyed on
	// clock + nextAccess.Compute with the seed's strict first-min
	// tie-break (see sched.go). Step is O(log E) instead of the old
	// linear argmin's O(E).
	sched eventHeap

	// Admission machinery. cfg is the resolved platform configuration
	// (costs normalized, hook concrete); shared is the one physical EPC
	// (nil until the first enclave is built), whose page count is the
	// shared page space and so the next admission's base offset;
	// chans seeds the host's channel group, and every enclave's channel
	// is a sibling of it.
	cfg    SharedConfig
	shared *epc.EPC
	chans  *channel.Channel
	// arb is the EPC quota arbiter shared by every kernel of this
	// domain; nil under the Global policy (the default), in which case
	// nothing about victim selection changes.
	arb *arbiter.Arbiter
}

// enclaveState is the per-enclave execution cursor.
type enclaveState struct {
	enc  Enclave
	src  mem.Stream
	kern *kernel.Kernel
	epc  *epc.EPC       // the shared EPC, whose Present is SIP's BIT_MAP_CHECK
	sel  *sip.Selection // nil unless the scheme uses SIP
	base mem.PageID     // offset of the enclave's range in shared space

	next mem.Access // one-access lookahead (the scheduler needs Compute)
	has  bool
	seen uint64 // accesses pulled so far, for error positions

	t   uint64 // enclave-local virtual clock
	res Result
}

// New builds an engine over the enclaves' streams (or materialized
// traces) and the shared platform configuration. Enclaves advance in
// global virtual-time order — on every Step the enclave with the
// smallest clock executes its next access — so channel serialization and
// evictions interleave exactly as a time-sliced platform would
// interleave them.
func New(enclaves []Enclave, cfg SharedConfig) (*Engine, error) {
	if len(enclaves) == 0 {
		return nil, fmt.Errorf("sim: engine needs at least one enclave")
	}
	return newEngine(enclaves, cfg)
}

// NewDynamic builds an engine with no enclaves yet: the fleet layer's
// host shape, where enclaves launch mid-run via Admit. A dynamic engine
// admitting its whole cohort at time zero is byte-identical to New over
// that cohort — both go through the same admission wiring in the same
// order — and both check the platform configuration before any enclave
// arrives, so a bad platform fails here, not on an arrival mid-run.
func NewDynamic(cfg SharedConfig) (*Engine, error) { return newEngine(nil, cfg) }

// newEngine is the shared construction path: check and normalize the
// platform configuration, then admit the initial cohort (possibly empty)
// at time zero.
func newEngine(enclaves []Enclave, cfg SharedConfig) (*Engine, error) {
	if cfg.EPCPages <= 0 {
		closeEnclaveStreams(enclaves)
		return nil, fmt.Errorf("sim: EPCPages must be positive, got %d", cfg.EPCPages)
	}
	if cfg.HookFactory != nil {
		closeEnclaveStreams(enclaves)
		return nil, fmt.Errorf("sim: SharedConfig.HookFactory is resolved per host by the fleet layer; an engine takes a concrete Hook")
	}
	if cfg.Costs == (mem.CostModel{}) {
		cfg.Costs = mem.DefaultCostModel()
	}
	if err := cfg.Costs.Validate(); err != nil {
		closeEnclaveStreams(enclaves)
		return nil, err
	}
	eng := &Engine{cfg: cfg, chans: channel.New()}
	if cfg.Quota != arbiter.Global {
		arb, err := arbiter.New(cfg.Quota, cfg.EPCPages)
		if err != nil {
			closeEnclaveStreams(enclaves)
			return nil, err
		}
		eng.arb = arb
	}
	eng.sched.init(len(enclaves))
	for i, e := range enclaves {
		if err := eng.Admit(e, 0); err != nil {
			// Release every stream: the built states via Close, and the
			// enclaves past the failing one — whose states never
			// existed — directly (Admit closed the failing enclave's).
			eng.Close()
			closeEnclaveStreams(enclaves[i+1:])
			return nil, err
		}
	}
	return eng, nil
}

// Admit adds an enclave to the engine with its virtual clock starting
// at now — the launch primitive behind dynamic fleet admission. The
// enclave's pages append to the shared space (the EPC's page table grows
// in place; resident pages, access/preload bits, and the CLOCK hand are
// untouched), it becomes the EPC's next owner, its channel joins the host's
// group, and its first access is scheduled at now plus its compute.
// Callers must not pass a now earlier than an already-executed event;
// the fleet front door admits arrivals in timestamp order, which
// guarantees that.
//
// Admission is one transaction, like an enclave build: every step that
// can fail runs before anything is changed, so on error the enclave's
// stream is closed and the engine is exactly as it was — its page space,
// owners, quotas, schedule, later results and events are those of an
// engine never offered the enclave.
func (e *Engine) Admit(enc Enclave, now uint64) error {
	closeErr := func(err error) error {
		mem.Close(enc.Stream)
		return err
	}
	idx := len(e.states)
	if enc.Pages == 0 {
		return closeErr(fmt.Errorf("sim: enclave %d (%s) declares zero pages", idx, enc.Name))
	}
	shared, base := e.shared, uint64(0)
	if shared != nil {
		base = shared.Pages()
	}
	total := base + enc.Pages
	if total < base {
		return closeErr(fmt.Errorf("sim: enclave %s overflows the shared page space (%d + %d pages)", enc.Name, base, enc.Pages))
	}
	if shared == nil {
		var err error
		if shared, err = epc.NewWithPolicy(e.cfg.EPCPages, total, e.cfg.EvictPolicy); err != nil {
			return closeErr(fmt.Errorf("sim: enclave %d (%s): %w", idx, enc.Name, err))
		}
	}
	st, err := buildState(enc, e.cfg, shared, e.chans.Sibling(), mem.PageID(base), e.arb, idx)
	if err != nil {
		return closeErr(err)
	}
	st.t = now
	st.advance()
	key := now + st.next.Compute
	if st.has && key < now {
		return closeErr(fmt.Errorf("sim: enclave %s scheduling key saturated uint64 at admission (launch %d + compute %d)",
			enc.Name, now, st.next.Compute))
	}
	// Grow is the last step that can fail, and a failed Grow leaves the
	// EPC unchanged; a fresh EPC already spans total, so it is a no-op.
	if err := shared.Grow(total); err != nil {
		return closeErr(fmt.Errorf("sim: enclave %d (%s): %w", idx, enc.Name, err))
	}

	// Commit. Enclave i is EPC owner i, whose kernel stamps every page
	// it loads — always, arbitrated or not: with quotas off the stamps
	// are inert bookkeeping, and the reporting layers read the per-owner
	// resident counts either way. Owner 0 exists from the EPC's
	// creation; each later enclave registers the next owner.
	if e.shared == nil {
		e.shared = shared
	} else {
		shared.AddOwner()
	}
	e.states = append(e.states, st)
	if e.arb != nil {
		// Quotas recompute over the whole cohort at every admission
		// (static shares shrink, proportional shares re-split). Emit the
		// new vector so arbitrated traces carry the partition from the
		// first enclave on; with the default Global policy no arbiter
		// exists and traces are byte-identical to earlier revisions.
		e.arb.AddEnclave(enc.Pages)
		st.kern.EmitQuotaVector(now)
	}
	if st.has {
		e.sched.push(int32(idx), key)
	}
	return nil
}

// closeEnclaveStreams releases the closeable streams of enclaves whose
// state was never built — the construction-failure counterpart of
// Engine.Close. Materialized traces wrap into slice streams that hold
// no resources, so only caller-provided Streams matter here.
func closeEnclaveStreams(enclaves []Enclave) {
	for _, e := range enclaves {
		mem.Close(e.Stream)
	}
}

// buildState wires one enclave: its kernel over the shared EPC and
// channel group, and its scheme configuration. This is the only place in
// the package where a scheme is turned into kernel machinery.
func buildState(e Enclave, cfg SharedConfig, shared *epc.EPC, ch *channel.Channel, base mem.PageID, arb *arbiter.Arbiter, owner int) (*enclaveState, error) {
	kcfg := kernel.Config{
		Costs:      cfg.Costs,
		ScanPeriod: cfg.ScanPeriod,
		RangeLo:    base,
		RangeHi:    base + mem.PageID(e.Pages),
		Hook:       cfg.Hook,
		Arbiter:    arb,
		Owner:      owner,

		BackgroundReclaim: e.BackgroundReclaim,
	}
	if e.Scheme.UsesDFP() {
		d := e.DFP
		if d.StreamListLen == 0 && d.LoadLength == 0 {
			d = dfp.DefaultConfig()
		}
		if e.Scheme == DFPStop || e.Scheme == Hybrid {
			d.Stop = true
		}
		kind := e.Predictor
		if kind == "" {
			kind = core.KindMultiStream
		}
		pred, err := core.NewPredictor(kind, d)
		if err != nil {
			return nil, fmt.Errorf("sim: enclave %s: %w", e.Name, err)
		}
		kcfg.Predictor = pred
	}
	k, err := kernel.New(kcfg, shared, ch)
	if err != nil {
		return nil, fmt.Errorf("sim: enclave %s: %w", e.Name, err)
	}
	st := &enclaveState{
		enc:  e,
		src:  e.source(),
		kern: k,
		epc:  shared,
		base: base,
		res:  Result{Scheme: e.Scheme},
	}
	if e.Scheme.UsesSIP() {
		st.sel = e.Selection
	}
	return st, nil
}

// source resolves the enclave's input: a materialized Trace wraps into a
// slice stream, otherwise the Stream is used directly.
func (e Enclave) source() mem.Stream {
	if e.Trace != nil || e.Stream == nil {
		return mem.SliceStream(e.Trace)
	}
	return e.Stream
}

// advance pulls the enclave's next access into the lookahead slot.
func (st *enclaveState) advance() {
	st.next, st.has = st.src.Next()
}

// Step executes one access: the enclave with the smallest virtual clock
// (its current time plus the compute preceding its next access) runs —
// the event heap's root, popped or re-keyed in O(log E). It returns
// false when every stream is exhausted; the error reports an access
// outside its enclave's declared range, or a virtual clock saturating
// uint64 (see burst). After a non-nil error the engine must be
// abandoned (Close it); its schedule is no longer meaningful.
func (e *Engine) Step() (bool, error) {
	if e.sched.len() == 0 {
		return false, nil
	}
	if err := e.burst(math.MaxUint64, true); err != nil {
		return false, err
	}
	return true, nil
}

// burst is the one stepping body behind Step, RunUntil and Drain. It
// runs the heap root's enclave while its next key stays at or below
// until and still beats the runner-up in (key, enclave) order — exactly
// the accesses per-access stepping would hand this enclave in a row —
// and re-keys the heap once, when the burst ends; single stops it after
// one access. With one runnable enclave there is no runner-up, so a solo
// run touches the heap only when its stream ends. Within the burst no
// other enclave acts, so the kernel's quiet horizon stays valid until an
// access of this enclave does more than hit: below it the access skips
// the kernel's scan and sync, which would find nothing to do.
//
// Saturation: an unbounded run (sgxsim -repeat 0) eventually pushes a
// clock toward 2^64. A wrapped scheduling key would silently corrupt
// the heap order — the enclave would look *earliest* instead of latest
// — so the engine detects the wrap and errors out instead of clamping:
// clamping would keep the run alive but make its schedule, and
// therefore every downstream artifact, quietly diverge from the
// infinite-precision schedule. At the default cost model, 2^64 cycles
// is centuries of simulated time; hitting the error means the run
// outlived the representation, not that the engine mis-scheduled.
func (e *Engine) burst(until uint64, single bool) error {
	h := &e.sched
	idx, key := h.min(), h.hKey[0]
	st := e.states[idx]
	up, upKey, upEnc := h.runnerUp()
	horizon := st.kern.Horizon()
	for {
		quiet, err := st.step(&e.cfg.Costs, key < horizon)
		if err != nil {
			return err
		}
		// key is st.t + st.next.Compute and is known not to wrap; a step
		// advances the clock past it (compute plus protocol costs), so a
		// post-step clock below it means the clock wrapped inside the
		// step's fault service.
		if st.t < key {
			return fmt.Errorf("sim: enclave %s virtual clock saturated uint64 at access %d",
				st.enc.Name, st.seen-1)
		}
		st.advance()
		if !st.has {
			h.popMin()
			return nil
		}
		key = st.t + st.next.Compute
		if key < st.t {
			return fmt.Errorf("sim: enclave %s scheduling key saturated uint64 at access %d (clock %d + compute %d)",
				st.enc.Name, st.seen, st.t, st.next.Compute)
		}
		if single || key > until || key > upKey || (key == upKey && idx > upEnc) {
			h.updateMin(key, up)
			return nil
		}
		if !quiet {
			horizon = st.kern.Horizon()
		}
	}
}

// Done reports whether every enclave's stream is exhausted.
func (e *Engine) Done() bool { return e.sched.len() == 0 }

// NextKey returns the virtual time of the engine's next scheduled event
// (the clock-plus-compute key of the earliest runnable enclave) and
// whether any enclave is still runnable. Only tests read it, to check
// the scheduler's key against the drivers; the fleet layer barriers
// with RunUntil at each arrival instead.
func (e *Engine) NextKey() (uint64, bool) {
	if e.sched.len() == 0 {
		return 0, false
	}
	return e.sched.hKey[0], true
}

// Running returns the number of enclaves whose streams are not yet
// exhausted — the load signal least-loaded placement reads.
func (e *Engine) Running() int { return e.sched.len() }

// EPCResident returns the occupied frame count of the shared EPC (0 for
// a dynamic engine before its first admission) — the occupancy signal
// pressure-aware placement reads.
func (e *Engine) EPCResident() int {
	if e.shared == nil {
		return 0
	}
	return e.shared.Resident()
}

// QuotaPolicy returns the engine's per-enclave EPC quota policy.
func (e *Engine) QuotaPolicy() arbiter.Policy { return e.cfg.Quota }

// OwnerResident returns enclave i's resident frame count in the shared
// EPC (0 before the enclave's first load) — maintained whether or not a
// quota policy is active.
func (e *Engine) OwnerResident(i int) int {
	if e.shared == nil {
		return 0
	}
	return e.shared.OwnerResident(i)
}

// Quota returns enclave i's current frame quota, or 0 when the Global
// policy (no quotas) is active.
func (e *Engine) Quota(i int) int {
	if e.arb == nil {
		return 0
	}
	return e.arb.Quota(i)
}

// RunUntil steps the engine while its next event is at or before t,
// stopping when every remaining event is strictly later (or every
// stream is exhausted). A stepping error closes the engine's
// streams and the engine must be abandoned.
func (e *Engine) RunUntil(t uint64) error {
	for e.sched.len() > 0 && e.sched.hKey[0] <= t {
		if err := e.burst(t, false); err != nil {
			e.Close()
			return err
		}
	}
	return nil
}

// Drain drives the engine to completion: RunUntil with no bound. Like
// RunUntil, a stepping error closes the engine's streams.
func (e *Engine) Drain() error { return e.RunUntil(math.MaxUint64) }

// Results snapshots every enclave's outcome. It may be called mid-run —
// a live observer polls it — and again after Done; each call derives a
// fresh snapshot from the current clocks and kernel counters.
func (e *Engine) Results() []SharedResult {
	out := make([]SharedResult, len(e.states))
	for i := range e.states {
		out[i] = e.Result(i)
	}
	return out
}

// Result snapshots enclave i's outcome (see Results). It derives only
// that enclave's snapshot — no per-call allocation, no O(E) walk — so a
// scraper polling one enclave of a 10k-enclave run costs O(1).
func (e *Engine) Result(i int) SharedResult {
	st := e.states[i]
	r := st.res
	r.Cycles = st.t
	r.Kernel = st.kern.Stats()
	return SharedResult{Name: st.enc.Name, Result: r}
}

// Close releases enclave streams that hold resources (generator
// coroutines). Runs that drain to completion release them implicitly;
// Close covers abandoned engines and error paths. Safe to call twice.
func (e *Engine) Close() {
	for _, st := range e.states {
		if st == nil {
			continue
		}
		mem.Close(st.src)
	}
}

// step executes one access of the enclave's stream: the enclave-side
// protocol of the paper — regular accesses, oracle prefetch
// notifications, and (when SIP instruments the site) the BIT_MAP_CHECK
// followed by a preload notification instead of a fault. quiet says the
// access issues below the kernel's horizon, so the scan and sync are
// skipped; the result says whether the kernel is still quiet after the
// access, which holds only for a quiet access that reached no kernel
// path but Touch.
func (st *enclaveState) step(costs *mem.CostModel, quiet bool) (bool, error) {
	acc := st.next
	st.seen++
	if uint64(acc.Page) >= st.enc.Pages {
		return false, fmt.Errorf("sim: enclave %s access %d touches page %d outside its %d pages",
			st.enc.Name, st.seen-1, acc.Page, st.enc.Pages)
	}
	page := st.base + acc.Page

	st.t += acc.Compute
	st.res.ComputeCycles += acc.Compute
	st.res.Accesses++
	if !quiet {
		st.kern.MaybeScan(st.t)
		st.kern.Sync(st.t)
	}

	if acc.Prefetch {
		// Oracle-inserted early notification: check the bitmap, post an
		// asynchronous load if absent, continue without waiting.
		st.t += costs.BitmapCheck
		st.res.PrefetchChecks++
		if !st.epc.Present(page) {
			st.t += costs.Notify
			st.kern.QueuePrefetch(st.t, page)
			st.res.PrefetchIssued++
			quiet = false
		}
		st.res.Accesses--
		return quiet, nil
	}

	if st.sel.Instrumented(acc.Site) {
		// SIP: BIT_MAP_CHECK before the access.
		st.t += costs.BitmapCheck
		st.res.SIPChecks++
		if st.epc.Present(page) {
			st.res.SIPPresent++
		} else {
			// Absent: notify the kernel preload thread and wait for the
			// load without leaving the enclave.
			st.t += costs.Notify
			st.t = st.kern.NotifyLoad(st.t, page)
			quiet = false
		}
	}

	if st.kern.Touch(page) {
		st.res.Hits++
		st.t += costs.Hit
		return quiet, nil
	}
	st.t = st.kern.HandleFault(st.t, page)
	st.t += costs.Hit
	return false, nil
}
