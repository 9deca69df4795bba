package kernel

import (
	"math"
	"testing"

	"sgxpreload/internal/channel"
	"sgxpreload/internal/core"
	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/mem"
)

func testCosts() mem.CostModel { return mem.DefaultCostModel() }

// build is the tests' one way to make a kernel: New over a fresh EPC of
// epcPages frames spanning elrange pages, with its own load channel.
func build(cfg Config, epcPages int, elrange uint64) (*Kernel, error) {
	e, err := epc.New(epcPages, elrange)
	if err != nil {
		return nil, err
	}
	return New(cfg, e, channel.New())
}

func newKernel(t *testing.T, epcPages int, d *dfp.Config) *Kernel {
	t.Helper()
	cfg := Config{Costs: testCosts()}
	if d != nil {
		cfg.Predictor = newDFP(t, *d)
	}
	k, err := build(cfg, epcPages, 1<<16)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return k
}

// newDFP builds the paper's multiple-stream predictor for a kernel.
func newDFP(t testing.TB, d dfp.Config) *core.Predictor {
	t.Helper()
	p, err := core.NewPredictor(core.KindMultiStream, d)
	if err != nil {
		t.Fatalf("core.NewPredictor: %v", err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := build(Config{Costs: testCosts()}, 0, 10); err == nil {
		t.Fatal("New with zero EPC succeeded")
	}
	if _, err := build(Config{}, 4, 10); err == nil {
		t.Fatal("New with zero cost model succeeded")
	}
	if _, err := dfp.New(dfp.Config{}); err == nil {
		t.Fatal("predictor with invalid DFP config built")
	}
}

func TestBaselineFaultCost(t *testing.T) {
	k := newKernel(t, 8, nil)
	cm := testCosts()
	resume := k.HandleFault(1000, 42)
	// Empty EPC: no eviction; cost = AEX + Load + ERESUME.
	want := 1000 + cm.AEX + cm.Load + cm.Eresume
	if resume != want {
		t.Fatalf("resume = %d, want %d", resume, want)
	}
	if !k.Present(42) {
		t.Fatal("page absent after fault service")
	}
	st := k.Stats()
	if st.DemandFaults != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 fault, 0 evictions", st)
	}
}

func TestFaultEvictsWhenFull(t *testing.T) {
	k := newKernel(t, 2, nil)
	cm := testCosts()
	tNow := uint64(0)
	for _, p := range []mem.PageID{1, 2} {
		tNow = k.HandleFault(tNow, p)
	}
	resume := k.HandleFault(tNow, 3)
	want := tNow + cm.AEX + cm.Evict + cm.Load + cm.Eresume
	if resume != want {
		t.Fatalf("resume = %d, want %d (with eviction)", resume, want)
	}
	if k.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", k.Stats().Evictions)
	}
	if k.EPC().Resident() != 2 {
		t.Fatalf("resident = %d, want 2", k.EPC().Resident())
	}
}

func TestDFPPredictsAndPreloads(t *testing.T) {
	d := dfp.DefaultConfig()
	k := newKernel(t, 64, &d)
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101) // stream hit: queues 102..105
	// Give the preload worker time: sync far in the future.
	k.Sync(tNow + 10*testCosts().Load)
	for p := mem.PageID(102); p <= 105; p++ {
		if !k.Present(p) {
			t.Fatalf("page %d not preloaded", p)
		}
		if !k.EPC().Preloaded(p) {
			t.Fatalf("page %d not marked as preloaded", p)
		}
	}
	if k.Stats().PreloadsStarted != 4 {
		t.Fatalf("PreloadsStarted = %d, want 4", k.Stats().PreloadsStarted)
	}
}

func TestPreloadedPageFaultFree(t *testing.T) {
	d := dfp.DefaultConfig()
	k := newKernel(t, 64, &d)
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101)
	k.Sync(tNow + 10*testCosts().Load)
	faultsBefore := k.Stats().DemandFaults
	if !k.Touch(102) {
		t.Fatal("preloaded page not touchable")
	}
	if k.Stats().DemandFaults != faultsBefore {
		t.Fatal("touching a preloaded page took a fault")
	}
}

func TestFaultOnInflightPreloadWaits(t *testing.T) {
	d := dfp.DefaultConfig()
	cm := testCosts()
	k := newKernel(t, 64, &d)
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101) // queues 102..105 eligible at tNow
	// Let the preload of 102 start but not finish.
	mid := tNow + cm.Load/2
	k.Sync(mid)
	if k.Channel().InflightPage() != 102 {
		t.Fatalf("inflight = %d, want 102", k.Channel().InflightPage())
	}
	resume := k.HandleFault(mid, 102)
	// The handler exits (AEX), then waits for the non-preemptible load,
	// then re-enters. The load completes at tNow + PreloadExtra + Load.
	done := tNow + cm.Load + cm.PreloadExtra
	want := done + cm.Eresume
	if resume != want {
		t.Fatalf("resume = %d, want %d (wait for in-flight preload)", resume, want)
	}
	if k.Stats().InflightHits != 1 {
		t.Fatalf("InflightHits = %d, want 1", k.Stats().InflightHits)
	}
}

func TestInWindowFaultAbortsBatch(t *testing.T) {
	d := dfp.DefaultConfig()
	k := newKernel(t, 64, &d)
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101) // queues 102..105, eligible at tNow
	// Fault on 104 immediately: 102 may be in flight; 104 is pending.
	k.Sync(tNow + 1)
	if !k.Channel().PendingContains(104) {
		t.Fatal("104 not pending; test setup broken")
	}
	k.HandleFault(tNow+1, 104)
	if k.Stats().InWindowAborts != 1 {
		t.Fatalf("InWindowAborts = %d, want 1", k.Stats().InWindowAborts)
	}
	if k.Channel().PendingContains(103) {
		t.Fatal("batch remainder not aborted")
	}
}

func TestDemandJumpsAheadOfPendingPreloads(t *testing.T) {
	d := dfp.DefaultConfig()
	cm := testCosts()
	k := newKernel(t, 64, &d)
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101) // queues 102..105
	k.Sync(tNow + 1)                // 102 in flight, 103..105 pending
	// An unrelated fault must wait only for the in-flight transfer, not
	// for the whole pending batch.
	resume := k.HandleFault(tNow+1, 5000)
	inflightDone := tNow + cm.Load + cm.PreloadExtra
	maxResume := inflightDone + cm.Load + cm.Evict + cm.Eresume + cm.AEX
	if resume > maxResume {
		t.Fatalf("resume = %d, want <= %d (demand must preempt pending preloads)", resume, maxResume)
	}
}

// A demand load is one synchronous transfer: it retires the preload in
// flight (installing it), runs to completion, installs its own page, and
// leaves the channel's in-flight slot empty for the next preload.
func TestTransferLeavesSlotIdle(t *testing.T) {
	d := dfp.DefaultConfig()
	cm := testCosts()
	k := newKernel(t, 64, &d)
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101) // queues 102..105
	k.Sync(tNow + 1)                // 102 in flight, 103..105 pending
	k.HandleFault(tNow+1, 5000)
	ch := k.Channel()
	if !ch.Idle() || ch.InflightPage() != mem.NoPage {
		t.Fatalf("after a demand load: idle %v, in-flight page %d", ch.Idle(), ch.InflightPage())
	}
	if !k.Present(102) || !k.Present(5000) {
		t.Fatalf("present: preload 102 %v, demand 5000 %v", k.Present(102), k.Present(5000))
	}
	if want := tNow + cm.PreloadExtra + 2*cm.Load; ch.BusyUntil() != want {
		t.Fatalf("BusyUntil = %d, want %d (the preload, then the demand load)", ch.BusyUntil(), want)
	}
	if ch.Started() != 4 || k.Stats().PreloadsStarted != 1 {
		t.Fatalf("Started %d, PreloadsStarted %d; want 4 transfers, 1 of them a preload",
			ch.Started(), k.Stats().PreloadsStarted)
	}
	// The SIP notify path demand-loads the same way.
	k.NotifyLoad(ch.BusyUntil()+1, 6000)
	if !ch.Idle() || !k.Present(6000) {
		t.Fatalf("after a notify load: idle %v, 6000 present %v", ch.Idle(), k.Present(6000))
	}
}

func TestNotifyLoadSkipsWorldSwitch(t *testing.T) {
	k := newKernel(t, 8, nil)
	cm := testCosts()
	done := k.NotifyLoad(1000, 7)
	if done != 1000+cm.Load {
		t.Fatalf("done = %d, want %d (load only, no AEX/ERESUME)", done, 1000+cm.Load)
	}
	if !k.Present(7) {
		t.Fatal("page absent after notify load")
	}
	st := k.Stats()
	if st.NotifyLoads != 1 || st.DemandFaults != 0 {
		t.Fatalf("stats = %+v, want notify load without fault", st)
	}
}

func TestNotifyLoadOnResidentPage(t *testing.T) {
	k := newKernel(t, 8, nil)
	k.HandleFault(0, 7)
	done := k.NotifyLoad(99999999, 7)
	if done != 99999999 {
		t.Fatalf("done = %d, want immediate return for resident page", done)
	}
	if k.Stats().NotifyHits != 1 {
		t.Fatalf("NotifyHits = %d, want 1", k.Stats().NotifyHits)
	}
}

// TestPresenceTracksResidency: the presence SIP's BIT_MAP_CHECK reads
// (the EPC's page table) follows the kernel's loads and evictions.
func TestPresenceTracksResidency(t *testing.T) {
	k := newKernel(t, 2, nil)
	e := k.EPC()
	tNow := k.HandleFault(0, 1)
	tNow = k.HandleFault(tNow, 2)
	if !e.Present(1) || !e.Present(2) {
		t.Fatal("presence missing resident pages")
	}
	k.HandleFault(tNow, 3) // evicts one of 1, 2
	set := 0
	for _, p := range []mem.PageID{1, 2, 3} {
		if e.Present(p) {
			set++
		}
	}
	if set != 2 {
		t.Fatalf("presence shows %d resident of {1,2,3}, want 2", set)
	}
}

func TestServiceScanFeedsStopFormula(t *testing.T) {
	d := dfp.DefaultConfig()
	d.Stop = true
	d.StopSlack = 1
	k, err := build(Config{
		Costs:      testCosts(),
		Predictor:  newDFP(t, d),
		ScanPeriod: 1000,
	}, 256, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	// Trigger a stream, preload pages, never touch them, then scan: the
	// accuracy collapses and the valve fires.
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101)
	k.Sync(tNow + 20*testCosts().Load)
	k.MaybeScan(tNow + 20*testCosts().Load)
	if !k.Predictor().Stopped() {
		t.Fatal("safety valve did not fire on all-junk preloads")
	}
	if !k.Stats().DFPStopped || k.Stats().DFPStopCycle == 0 {
		t.Fatalf("stats do not record the stop: %+v", k.Stats())
	}
	// Stopped predictor: new stream hits produce no preloads.
	tNow = k.HandleFault(tNow+30*testCosts().Load, 500)
	tNow = k.HandleFault(tNow, 501)
	k.Sync(tNow + 20*testCosts().Load)
	if k.Present(502) {
		t.Fatal("preloading continued after the valve fired")
	}
}

func TestScanCountsAccessedPreloadsOnce(t *testing.T) {
	d := dfp.DefaultConfig()
	k, err := build(Config{
		Costs:      testCosts(),
		Predictor:  newDFP(t, d),
		ScanPeriod: 1,
	}, 256, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101)
	end := tNow + 20*testCosts().Load
	k.Sync(end)
	k.Touch(102)
	k.Touch(103)
	k.MaybeScan(end)
	if got := k.Predictor().AccPreloadCounter(); got != 2 {
		t.Fatalf("AccPreloadCounter = %d, want 2", got)
	}
	k.MaybeScan(end + 1000)
	if got := k.Predictor().AccPreloadCounter(); got != 2 {
		t.Fatalf("AccPreloadCounter = %d after rescan, want 2 (count once)", got)
	}
}

func TestDrainCompletesOutstandingWork(t *testing.T) {
	d := dfp.DefaultConfig()
	k := newKernel(t, 64, &d)
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101)
	k.Sync(math.MaxUint64)
	if end := k.Channel().BusyUntil(); end < tNow {
		t.Fatalf("channel idle at %d, before now %d", end, tNow)
	}
	if k.Channel().PendingLen() != 0 {
		t.Fatal("pending work after draining")
	}
	for p := mem.PageID(102); p <= 105; p++ {
		if !k.Present(p) {
			t.Fatalf("page %d not loaded by draining", p)
		}
	}
}

func TestPredictionsOutsideELRangeDropped(t *testing.T) {
	d := dfp.DefaultConfig()
	// Stream 100,101 predicts 102..105; 104,105 are out of range.
	k, err := build(Config{
		Costs:     testCosts(),
		Predictor: newDFP(t, d),
	}, 64, 104)
	if err != nil {
		t.Fatal(err)
	}
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101)
	k.Sync(math.MaxUint64)
	if k.Present(102) != true || k.Present(103) != true {
		t.Fatal("in-range predictions not loaded")
	}
	if k.EPC().Resident() != 4 { // 100, 101, 102, 103
		t.Fatalf("resident = %d, want 4 (out-of-range predictions dropped)", k.EPC().Resident())
	}
}

// TestTimeMonotone drives a mixed operation sequence and checks resume
// times never go backwards relative to the request times.
func TestTimeMonotone(t *testing.T) {
	d := dfp.DefaultConfig()
	k := newKernel(t, 16, &d)
	var tNow uint64
	pages := []mem.PageID{10, 11, 12, 500, 13, 14, 900, 15, 16, 17, 901, 18}
	for i, p := range pages {
		tNow += uint64(i * 100)
		k.Sync(tNow)
		if k.Touch(p) {
			continue
		}
		var next uint64
		if i%3 == 0 {
			next = k.NotifyLoad(tNow, p)
		} else {
			next = k.HandleFault(tNow, p)
		}
		if next < tNow {
			t.Fatalf("time went backwards: %d -> %d", tNow, next)
		}
		tNow = next
		if err := k.EPC().CheckInvariants(); err != nil {
			t.Fatalf("EPC invariants after op %d: %v", i, err)
		}
	}
}

func TestBackgroundReclaimMaintainsWatermarks(t *testing.T) {
	k, err := build(Config{
		Costs:             testCosts(),
		ScanPeriod:        1000,
		BackgroundReclaim: true,
	}, 64, 1<<16) // watermarks 2 and 4
	if err != nil {
		t.Fatal(err)
	}
	var tNow uint64
	for p := mem.PageID(0); p < 64; p++ {
		tNow = k.HandleFault(tNow, p)
	}
	// EPC full; the next scan must reclaim up to the high watermark.
	k.MaybeScan(tNow + 10_000_000)
	free := k.EPC().Capacity() - k.EPC().Resident()
	if free < 4 {
		t.Fatalf("free = %d after reclaim scan, want >= high watermark 4", free)
	}
	if k.Stats().BackgroundEvictions == 0 {
		t.Fatal("no background evictions recorded")
	}
}

func TestBackgroundReclaimCheapensFaultPath(t *testing.T) {
	cm := testCosts()
	k, err := build(Config{
		Costs:             cm,
		ScanPeriod:        1000,
		BackgroundReclaim: true,
	}, 64, 1<<16) // watermarks 2 and 4
	if err != nil {
		t.Fatal(err)
	}
	var tNow uint64
	for p := mem.PageID(0); p < 64; p++ {
		tNow = k.HandleFault(tNow, p)
	}
	k.MaybeScan(tNow + 10_000_000) // reclaims 4 frames
	// With free frames available, a fault pays no synchronous eviction.
	start := tNow + 20_000_000
	resume := k.HandleFault(start, 5000)
	if got, want := resume-start, cm.AEX+cm.Load+cm.Eresume; got != want {
		t.Fatalf("fault with free frames cost %d, want %d (no sync EWB)", got, want)
	}
}

func TestBackgroundReclaimBurstOccupiesChannel(t *testing.T) {
	k, err := build(Config{
		Costs:             testCosts(),
		ScanPeriod:        1000,
		BackgroundReclaim: true,
	}, 32, 1<<16) // watermarks 1 and 2
	if err != nil {
		t.Fatal(err)
	}
	var tNow uint64
	for p := mem.PageID(0); p < 32; p++ {
		tNow = k.HandleFault(tNow, p)
	}
	before := k.Channel().BusyUntil()
	k.MaybeScan(tNow + 10_000_000)
	after := k.Channel().BusyUntil()
	if after <= before {
		t.Fatal("write-back burst did not occupy the channel")
	}
}

// New over a shared EPC rejects an empty slice of its page space.
func TestNewSharedValidation(t *testing.T) {
	if _, err := build(Config{Costs: testCosts(), RangeLo: 50, RangeHi: 50}, 8, 100); err == nil {
		t.Fatal("empty page range accepted")
	}
}

func TestStaleBacklogDropped(t *testing.T) {
	d := dfp.DefaultConfig()
	d.LoadLength = 48
	k, err := build(Config{Costs: testCosts(), Predictor: newDFP(t, d)}, 512, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	// Two quick stream triggers each queue 48 predictions into a backlog
	// capped at MaxPending (64): the stalest must be dropped.
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101)
	tNow = k.HandleFault(tNow, 5000)
	k.HandleFault(tNow, 5001)
	if n := k.Channel().PendingLen(); n > MaxPending {
		t.Fatalf("pending backlog %d exceeds cap %d", n, MaxPending)
	}
	if k.Stats().PreloadsDropped == 0 {
		t.Fatal("no stale preloads dropped despite backlog overflow")
	}
}

// Regression: QueuePrefetch used to bound only by ELRangePages, so a
// shared-EPC multi-enclave kernel could prefetch pages belonging to
// another enclave's slice of the shared page space. It must apply the
// same RangeLo/RangeHi bound predict does.
func TestQueuePrefetchRespectsRangeSlice(t *testing.T) {
	k, err := build(Config{Costs: testCosts(), RangeLo: 50, RangeHi: 100}, 8, 200)
	if err != nil {
		t.Fatal(err)
	}
	k.QueuePrefetch(0, 150) // inside ELRANGE but in another enclave's slice
	k.QueuePrefetch(0, 10)  // below this enclave's slice
	if n := k.Channel().PendingLen(); n != 0 {
		t.Fatalf("prefetch outside [RangeLo, RangeHi) queued %d requests", n)
	}
	k.QueuePrefetch(0, 60) // inside the slice
	if !k.Channel().PendingContains(60) {
		t.Fatal("in-slice prefetch not queued")
	}
	if st := k.Stats(); st.PreloadsQueued != 1 {
		t.Fatalf("PreloadsQueued = %d, want 1 (out-of-slice prefetches must not count)", st.PreloadsQueued)
	}
}

func TestSyncDropsRequestsForResidentPages(t *testing.T) {
	d := dfp.DefaultConfig()
	k := newKernel(t, 64, &d)
	tNow := k.HandleFault(0, 100)
	tNow = k.HandleFault(tNow, 101) // queues 102..105 at resume
	// Demand-load 103 before the preloads start.
	tNow = k.HandleFault(tNow, 103)
	k.Sync(math.MaxUint64)
	// 103 was in the pending batch; the in-window abort cancelled that
	// batch, so everything is consistent — no duplicate installs.
	if err := k.EPC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePrefetchFilters(t *testing.T) {
	k := newKernel(t, 8, nil)
	tNow := k.HandleFault(0, 3)
	k.QueuePrefetch(tNow, 3) // resident: ignored
	if k.Channel().PendingLen() != 0 {
		t.Fatal("prefetch queued for a resident page")
	}
	k.QueuePrefetch(tNow, 1<<20) // out of range: ignored
	if k.Channel().PendingLen() != 0 {
		t.Fatal("prefetch queued outside ELRANGE")
	}
	k.QueuePrefetch(tNow, 5)
	k.QueuePrefetch(tNow, 5) // duplicate: ignored
	if k.Channel().PendingLen() != 1 {
		t.Fatalf("pending = %d, want 1", k.Channel().PendingLen())
	}
	k.Sync(math.MaxUint64)
	if !k.Present(5) {
		t.Fatal("prefetched page not loaded")
	}
}
