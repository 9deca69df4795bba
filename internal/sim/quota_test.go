package sim

import (
	"fmt"
	"testing"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/rng"
)

// checkOwnership checks the owner stamps the kernels pass to the shared
// EPC against the enclaves' page ranges, which only the engine knows:
// enclave i's resident frame count must equal the number of present
// pages in [base_i, base_i+Pages_i), and the counts must sum to
// EPCResident. A preload that one enclave began and another's kernel
// retired under its own owner breaks it.
func checkOwnership(e *Engine) error {
	sum := 0
	for i, st := range e.states {
		present := 0
		for p := st.base; p < st.base+mem.PageID(st.enc.Pages); p++ {
			if e.shared.Present(p) {
				present++
			}
		}
		if got := e.OwnerResident(i); got != present {
			return fmt.Errorf("enclave %d (%s): OwnerResident = %d, %d pages of its range present",
				i, st.enc.Name, got, present)
		}
		sum += present
	}
	if sum != e.EPCResident() {
		return fmt.Errorf("owner residents sum to %d, EPC holds %d", sum, e.EPCResident())
	}
	return nil
}

// sweepTrace generates forward runs of 8 to 39 pages from random starts,
// with about a load's time of compute before each access, so DFP's
// preloads start and stay in flight while other enclaves run.
func sweepTrace(r *rng.Source, n int, pages uint64) []mem.Access {
	out := make([]mem.Access, 0, n)
	for len(out) < n {
		pos, run := r.Uint64n(pages), 8+r.Intn(32)
		for i := 0; i < run && len(out) < n; i++ {
			out = append(out, mem.Access{Site: 1, Page: mem.PageID((pos + uint64(i)) % pages),
				Compute: 30000 + r.Uint64n(60000)})
		}
	}
	return out
}

// TestOwnershipOneHostFleet admits DFP enclaves into one dynamic engine at
// staggered launch times, settling the engine with RunUntil before each
// batch of arrivals as a one-host fleet does, under every quota policy.
// The enclaves' preloads share one load channel, so kernels retire each
// other's preloads; checkOwnership must hold at every barrier and at the
// end, and some preload must have been retired by another enclave.
func TestOwnershipOneHostFleet(t *testing.T) {
	for _, q := range arbiter.Policies() {
		t.Run(q.String(), func(t *testing.T) {
			eng, err := NewDynamic(SharedConfig{EPCPages: 128, Quota: q, ScanPeriod: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			r := rng.New(31)
			for i, at := range []uint64{0, 300_000, 300_000} {
				if err := eng.RunUntil(at); err != nil {
					t.Fatal(err)
				}
				if err := checkOwnership(eng); err != nil {
					t.Fatalf("before arrival %d at t=%d: %v", i, at, err)
				}
				pages := uint64(40 + 30*i)
				enc := Enclave{Name: fmt.Sprint("e", i), Trace: sweepTrace(r, 1500, pages), Pages: pages, Scheme: DFP}
				if err := eng.Admit(enc, at); err != nil {
					t.Fatal(err)
				}
			}
			// A preload leaves the in-flight slot during a step of an
			// enclave whose range does not hold its page: a retirement by
			// another enclave's kernel.
			cross := 0
			for !eng.Done() {
				runner := eng.states[eng.sched.min()]
				before := eng.chans.InflightPage()
				if _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
				if before != mem.NoPage && eng.chans.InflightPage() != before &&
					(before < runner.base || before >= runner.base+mem.PageID(runner.enc.Pages)) {
					cross++
				}
				if err := checkOwnership(eng); err != nil {
					t.Fatal(err)
				}
			}
			if cross == 0 {
				t.Fatal("no kernel retired another enclave's preload")
			}
			if err := eng.shared.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// quotaEnclaves builds a small contending cohort: one large hog and two
// small enclaves, each replaying a random trace over its own range.
func quotaEnclaves() []Enclave {
	r := rng.New(2024)
	return []Enclave{
		{Name: "hog", Trace: randomTrace(r, 3000, 256), Pages: 256, Scheme: DFPStop},
		{Name: "small-a", Trace: randomTrace(r, 1500, 48), Pages: 48, Scheme: DFPStop},
		{Name: "small-b", Trace: randomTrace(r, 1500, 48), Pages: 48, Scheme: DFPStop},
	}
}

// TestQuotaPoliciesComplete: the contended grid drains under every quota
// policy with per-enclave conservation and consistent owner accounting.
func TestQuotaPoliciesComplete(t *testing.T) {
	for _, q := range arbiter.Policies() {
		t.Run(q.String(), func(t *testing.T) {
			eng, err := New(quotaEnclaves(), SharedConfig{EPCPages: 96, Quota: q, ScanPeriod: 100_000})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := eng.shared.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := checkOwnership(eng); err != nil {
				t.Fatal(err)
			}
			for _, r := range eng.Results() {
				if r.Hits+r.Kernel.DemandFaults != r.Accesses {
					t.Fatalf("enclave %s: conservation violated", r.Name)
				}
			}
			if q == arbiter.Global {
				if eng.Quota(0) != 0 {
					t.Fatalf("Global policy reports quota %d, want 0", eng.Quota(0))
				}
			} else {
				for i := range eng.states {
					if eng.Quota(i) < 1 {
						t.Fatalf("enclave %d quota %d below the floor", i, eng.Quota(i))
					}
				}
			}
		})
	}
}

// TestQuotaGlobalMatchesNoQuota: the Global policy is the no-quota
// configuration bit-for-bit — identical results and identical trace.
func TestQuotaGlobalMatchesNoQuota(t *testing.T) {
	run := func(q arbiter.Policy, rec *obs.Recorder) []SharedResult {
		t.Helper()
		res, err := RunShared(quotaEnclaves(), SharedConfig{EPCPages: 96, Quota: q, Hook: rec})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	recNone, recGlobal := obs.NewRecorder(), obs.NewRecorder()
	base := run(arbiter.Global, recNone) // zero value: the no-quota default
	explicit := run(arbiter.Global, recGlobal)
	for i := range base {
		if base[i] != explicit[i] {
			t.Fatalf("enclave %d diverges under explicit Global policy", i)
		}
	}
	a, b := recNone.Events(), recGlobal.Events()
	if len(a) != len(b) {
		t.Fatalf("timelines diverge: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
	for _, e := range a {
		if e.Kind == obs.KindQuotaRebalance {
			t.Fatal("Global policy emitted a quota_rebalance event")
		}
	}
}

// TestQuotaRebalanceEvents: arbitrated runs emit the admission-time
// quota vector for every policy, adaptive runs additionally emit scan
// rebalances, and every vector arrives in enclave-index order.
func TestQuotaRebalanceEvents(t *testing.T) {
	for _, q := range []arbiter.Policy{arbiter.Static, arbiter.Proportional, arbiter.Adaptive} {
		t.Run(q.String(), func(t *testing.T) {
			rec := obs.NewRecorder()
			if _, err := RunShared(quotaEnclaves(), SharedConfig{
				EPCPages: 96, Quota: q, ScanPeriod: 100_000, Hook: rec,
			}); err != nil {
				t.Fatal(err)
			}
			var quota []obs.Event
			for _, e := range rec.Events() {
				if e.Kind == obs.KindQuotaRebalance {
					quota = append(quota, e)
				}
			}
			// Admissions alone contribute 1 + 2 + 3 = 6 events.
			if len(quota) < 6 {
				t.Fatalf("got %d quota events, want >= 6", len(quota))
			}
			if q == arbiter.Adaptive && len(quota) == 6 {
				t.Fatal("adaptive run never rebalanced past admission")
			}
			// Vectors arrive in index order: enclave index resets to 0
			// exactly at vector boundaries and increments inside one.
			want := uint64(0)
			for i, e := range quota {
				if e.Batch != want && e.Batch != 0 {
					t.Fatalf("event %d: enclave %d out of order (want %d or 0)", i, e.Batch, want)
				}
				want = e.Batch + 1
			}
			shares := obs.BuildReport(rec.Events()).Quota
			if len(shares) != 3 {
				t.Fatalf("report found %d enclaves, want 3", len(shares))
			}
			sum := 0
			for _, s := range shares {
				sum += int(s.Quota)
			}
			// Static and proportional partitions sum to capacity exactly;
			// adaptive may be mid-glide between bounded steps.
			if q != arbiter.Adaptive && sum != 96 {
				t.Fatalf("final quotas sum to %d, want 96", sum)
			}
		})
	}
}

// TestQuotaAdmitRecompute pins the Admit/Grow boundary: each admission
// re-splits the proportional partition over the grown page space.
func TestQuotaAdmitRecompute(t *testing.T) {
	eng, err := NewDynamic(SharedConfig{EPCPages: 100, Quota: arbiter.Proportional})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	r := rng.New(5)
	if err := eng.Admit(Enclave{Name: "big", Trace: randomTrace(r, 100, 300), Pages: 300}, 0); err != nil {
		t.Fatal(err)
	}
	if got := eng.Quota(0); got != 100 {
		t.Fatalf("solo quota = %d, want 100", got)
	}
	if err := eng.RunUntil(50_000); err != nil {
		t.Fatal(err)
	}
	if err := eng.Admit(Enclave{Name: "late", Trace: randomTrace(r, 100, 100), Pages: 100}, 60_000); err != nil {
		t.Fatal(err)
	}
	if q0, q1 := eng.Quota(0), eng.Quota(1); q0 != 75 || q1 != 25 {
		t.Fatalf("quotas after mid-run admit = (%d, %d), want (75, 25)", q0, q1)
	}
	if err := checkOwnership(eng); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := checkOwnership(eng); err != nil {
		t.Fatal(err)
	}
}

// TestQuotaBelowMinResident: with more enclaves than spare frames every
// quota sits at the one-frame floor; the owned scan keeps coming up
// empty for frameless owners, the kernel falls back to the global scan,
// and the run completes.
func TestQuotaBelowMinResident(t *testing.T) {
	r := rng.New(77)
	var encs []Enclave
	for i := 0; i < 4; i++ {
		encs = append(encs, Enclave{
			Name:  string(rune('a' + i)),
			Trace: randomTrace(r, 500, 64),
			Pages: 64,
		})
	}
	for _, q := range []arbiter.Policy{arbiter.Static, arbiter.Adaptive} {
		eng, err := New(encs, SharedConfig{EPCPages: 4, Quota: q, ScanPeriod: 50_000})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Drain(); err != nil {
			t.Fatalf("quota %v: %v", q, err)
		}
		if err := eng.shared.CheckInvariants(); err != nil {
			t.Fatalf("quota %v: %v", q, err)
		}
		if err := checkOwnership(eng); err != nil {
			t.Fatalf("quota %v: %v", q, err)
		}
		for _, res := range eng.Results() {
			if res.Hits+res.Kernel.DemandFaults != res.Accesses {
				t.Fatalf("quota %v: enclave %s conservation violated", q, res.Name)
			}
		}
	}
}
