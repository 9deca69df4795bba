package fleet

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"sgxpreload/internal/epc"
	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sim"
)

// enclaves builds n deterministic enclaves with tied schedules: 64
// pages each, a strided trace, schemes cycling through the engine's
// three main configurations.
func enclaves(n int) []sim.Enclave {
	out := make([]sim.Enclave, n)
	schemes := []sim.Scheme{sim.Baseline, sim.DFP, sim.DFPStop}
	for i := range out {
		trace := make([]mem.Access, 96)
		for j := range trace {
			trace[j] = mem.Access{Page: mem.PageID((j * 7) % 64), Compute: 1000}
		}
		out[i] = sim.Enclave{
			Name:   fmt.Sprintf("enc%04d", i),
			Trace:  trace,
			Pages:  64,
			Scheme: schemes[i%len(schemes)],
		}
	}
	return out
}

// atTimeZero wraps enclaves as a t=0 arrival batch.
func atTimeZero(encs []sim.Enclave) []Arrival {
	out := make([]Arrival, len(encs))
	for i, e := range encs {
		out[i] = Arrival{At: 0, Enclave: e}
	}
	return out
}

// TestOneHostFleetEqualsRunShared is the byte-identity anchor: a
// one-host fleet with every arrival at time zero and no admission
// control is RunShared — same admissions in the same order on the same
// engine, so per-enclave results match field for field.
func TestOneHostFleetEqualsRunShared(t *testing.T) {
	want, err := sim.RunShared(enclaves(8), sim.SharedConfig{EPCPages: 96})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(atTimeZero(enclaves(8)), Config{Hosts: 1, Platform: sim.SharedConfig{EPCPages: 96}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 1 {
		t.Fatalf("got %d hosts, want 1", len(res.Hosts))
	}
	if a, b := fmt.Sprintf("%#v", want), fmt.Sprintf("%#v", res.Hosts[0].Enclaves); a != b {
		t.Errorf("one-host fleet diverges from RunShared:\n  shared %.300s\n  fleet  %.300s", a, b)
	}
	if len(res.Shed) != 0 {
		t.Errorf("no-admission fleet shed %d launches", len(res.Shed))
	}
}

// TestFleetDeterministicAcrossWorkers: the whole result — placements,
// sheds, per-enclave results, latency percentiles — is identical at any
// worker count, because parallelism lives only between arrival barriers.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	for _, policy := range Policies() {
		run := func(workers int) string {
			arr := make([]Arrival, 0, 24)
			for i, e := range enclaves(24) {
				arr = append(arr, Arrival{At: uint64(i) * 30_000, Enclave: e})
			}
			res, err := Run(arr, Config{
				Hosts:       4,
				Policy:      policy,
				Platform:    sim.SharedConfig{EPCPages: 96},
				AdmitPeriod: 20_000,
				AdmitBurst:  2,
				Workers:     workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%#v", res)
		}
		want := run(1)
		for _, workers := range []int{2, 4, 8, 0} {
			if got := run(workers); got != want {
				t.Errorf("policy %s workers=%d: fleet result diverges from sequential run", policy, workers)
			}
		}
	}
}

// TestRoundRobinPlacement pins the baseline policy: admitted launch i
// lands on host i mod H regardless of load.
func TestRoundRobinPlacement(t *testing.T) {
	res, err := Run(atTimeZero(enclaves(9)), Config{Hosts: 3, Policy: RoundRobin,
		Platform: sim.SharedConfig{EPCPages: 96}})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range res.Placement {
		if h != i%3 {
			t.Errorf("launch %d placed on host %d, want %d", i, h, i%3)
		}
	}
}

// TestAffinityPlacement: the first launch of each workload spreads
// least-loaded, and every repeat launch — identified by its name with
// the "/<index>" launch suffix stripped — returns to the host that ran
// it before, even when the fleet has long since gone idle and
// least-loaded would start over at host 0.
func TestAffinityPlacement(t *testing.T) {
	base := enclaves(3)
	name := []string{"alpha", "beta", "gamma"}
	arr := make([]Arrival, 0, 6)
	// First round at t=0: alpha, beta, gamma spread to hosts 0, 1, 2.
	for i, e := range base {
		e.Name = fmt.Sprintf("%s/%d", name[i], i)
		arr = append(arr, Arrival{At: 0, Enclave: e})
	}
	// Second round long after the first drains, in reverse order, so a
	// least-loaded restart would invert the placement.
	for i := range base {
		e := base[2-i]
		e.Name = fmt.Sprintf("%s/%d", name[2-i], 3+i)
		arr = append(arr, Arrival{At: 100_000_000, Enclave: e})
	}
	res, err := Run(arr, Config{Hosts: 3, Policy: Affinity,
		Platform: sim.SharedConfig{EPCPages: 96}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 2, 1, 0}
	for i, h := range res.Placement {
		if h != want[i] {
			t.Errorf("launch %d (%s) placed on host %d, want %d (placement %v)",
				i, arr[i].Enclave.Name, h, want[i], res.Placement)
		}
	}
}

// TestAffinityDeterministicAcrossWorkers repeats the worker sweep with
// colliding workload names, which the generic Policies() sweep never
// produces: the affinity map must make the same decisions at any
// parallelism.
func TestAffinityDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		arr := make([]Arrival, 0, 24)
		for i, e := range enclaves(24) {
			e.Name = fmt.Sprintf("w%d/%d", i%5, i)
			arr = append(arr, Arrival{At: uint64(i) * 30_000, Enclave: e})
		}
		res, err := Run(arr, Config{
			Hosts:       4,
			Policy:      Affinity,
			Platform:    sim.SharedConfig{EPCPages: 96},
			AdmitPeriod: 20_000,
			AdmitBurst:  2,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", res)
	}
	want := run(1)
	for _, workers := range []int{8} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d: affinity fleet diverges from sequential run", workers)
		}
	}
}

func TestAffinityKey(t *testing.T) {
	cases := map[string]string{
		"alpha/5":   "alpha",
		"alpha/123": "alpha",
		"alpha":     "alpha",
		"alpha/":    "alpha/",
		"a/b/7":     "a/b",
		"alpha/x1":  "alpha/x1",
	}
	for in, want := range cases {
		if got := affinityKey(in); got != want {
			t.Errorf("affinityKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestColdFleetSpreads: on an idle fleet both load-aware policies must
// spread a t=0 batch across hosts (via their running-count tie-break)
// instead of stacking host 0.
func TestColdFleetSpreads(t *testing.T) {
	for _, policy := range []Policy{LeastLoaded, PressureAware} {
		res, err := Run(atTimeZero(enclaves(6)), Config{Hosts: 3, Policy: policy,
			Platform: sim.SharedConfig{EPCPages: 96}})
		if err != nil {
			t.Fatal(err)
		}
		for h, hr := range res.Hosts {
			if len(hr.Enclaves) != 2 {
				t.Errorf("%s: host %d got %d enclaves, want 2 (placement %v)",
					policy, h, len(hr.Enclaves), res.Placement)
			}
		}
	}
}

// TestPressureAvoidsOccupiedHost: after a large enclave fills host 0's
// EPC, pressure-aware placement sends the next launch elsewhere, while
// round-robin (by construction) would return to host 0 on the third.
func TestPressureAvoidsOccupiedHost(t *testing.T) {
	big := sim.Enclave{Name: "hog", Pages: 256, Scheme: sim.Baseline}
	for j := 0; j < 256; j++ {
		big.Trace = append(big.Trace, mem.Access{Page: mem.PageID(j), Compute: 100})
	}
	arr := []Arrival{{At: 0, Enclave: big}}
	for i, e := range enclaves(3) {
		arr = append(arr, Arrival{At: 1_000_000 + uint64(i), Enclave: e})
	}
	res, err := Run(arr, Config{Hosts: 2, Policy: PressureAware,
		Platform: sim.SharedConfig{EPCPages: 512}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement[0] != 0 {
		t.Fatalf("hog placed on host %d, want 0", res.Placement[0])
	}
	if res.Placement[1] != 1 {
		t.Errorf("first launch after the hog placed on host %d, want 1 (host 0 EPC is full)", res.Placement[1])
	}
	if res.Hosts[0].EPCResident <= res.Hosts[1].EPCResident {
		t.Errorf("expected host 0 (hog) to end more occupied: %d vs %d",
			res.Hosts[0].EPCResident, res.Hosts[1].EPCResident)
	}
}

// TestAdmissionControlSheds: arrivals faster than the bucket's rate are
// shed deterministically; the shed enclave's stream is released.
func TestAdmissionControlSheds(t *testing.T) {
	closed := 0
	arr := make([]Arrival, 6)
	for i, e := range enclaves(6) {
		e.Trace = nil
		e.Stream = closeProbe{onClose: func() { closed++ }}
		arr[i] = Arrival{At: uint64(i) * 1000, Enclave: e}
	}
	res, err := Run(arr, Config{Hosts: 2, Platform: sim.SharedConfig{EPCPages: 96},
		AdmitPeriod: 2000, AdmitBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	// t=0 spends the initial token; refills at 2000-cycle period admit
	// t=2000 and t=4000; t=1000, 3000, 5000 are shed.
	wantShed := []string{"enc0001", "enc0003", "enc0005"}
	if fmt.Sprint(res.Shed) != fmt.Sprint(wantShed) {
		t.Errorf("shed %v, want %v", res.Shed, wantShed)
	}
	if closed != len(wantShed) {
		t.Errorf("%d shed streams closed, want %d", closed, len(wantShed))
	}
	admitted := 0
	for _, h := range res.Placement {
		if h >= 0 {
			admitted++
		}
	}
	if admitted != 3 {
		t.Errorf("admitted %d launches, want 3", admitted)
	}
}

// TestTokenBucket exercises the controller in isolation: burst draining,
// integer refill, and the no-banking-past-burst rule.
func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(100, 2)
	for i, want := range []bool{true, true, false} { // burst of 2, then dry at t=0
		if got := b.take(0); got != want {
			t.Fatalf("take %d at t=0: got %v, want %v", i, got, want)
		}
	}
	if b.take(99) {
		t.Error("token accrued before a full period elapsed")
	}
	if !b.take(100) {
		t.Error("no token after one full period")
	}
	if b.take(100) {
		t.Error("second token at t=100 (only one period elapsed)")
	}
	// Long idle refills to burst, never beyond.
	for i, want := range []bool{true, true, false} {
		if got := b.take(10_000); got != want {
			t.Fatalf("take %d after long idle: got %v, want %v", i, got, want)
		}
	}
	// Disabled bucket admits everything.
	d := newTokenBucket(0, 0)
	for i := 0; i < 10; i++ {
		if !d.take(0) {
			t.Fatal("disabled bucket shed a launch")
		}
	}
}

// TestFleetHookFactory: per-host recorders see disjoint, deterministic
// timelines; the legacy single Hook is rejected on a multi-host fleet.
func TestFleetHookFactory(t *testing.T) {
	recs := make([]*obs.Recorder, 2)
	cfg := Config{Hosts: 2, Platform: sim.SharedConfig{EPCPages: 96,
		HookFactory: func(h int) obs.Hook {
			recs[h] = obs.NewRecorder()
			return recs[h]
		}}}
	if _, err := Run(atTimeZero(enclaves(4)), cfg); err != nil {
		t.Fatal(err)
	}
	for h, rec := range recs {
		var b strings.Builder
		if err := obs.WriteJSONL(&b, rec.Events()); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			t.Errorf("host %d recorded no events", h)
		}
	}

	bad := Config{Hosts: 2, Platform: sim.SharedConfig{EPCPages: 96, Hook: obs.NewRecorder()}}
	if _, err := Run(atTimeZero(enclaves(4)), bad); err == nil ||
		!strings.Contains(err.Error(), "hook") {
		t.Errorf("shared hook on 2 hosts: want rejection, got %v", err)
	}
	// Both Hook and HookFactory set is ambiguous — rejected.
	both := Config{Hosts: 1, Platform: sim.SharedConfig{EPCPages: 96, Hook: obs.NewRecorder(),
		HookFactory: func(int) obs.Hook { return nil }}}
	if _, err := Run(atTimeZero(enclaves(2)), both); err == nil ||
		!strings.Contains(err.Error(), "not both") {
		t.Errorf("Hook+HookFactory: want rejection, got %v", err)
	}
	// An unresolved factory must not reach an engine silently.
	if _, err := sim.RunShared(enclaves(2), sim.SharedConfig{EPCPages: 96,
		HookFactory: func(int) obs.Hook { return nil }}); err == nil ||
		!strings.Contains(err.Error(), "HookFactory") {
		t.Errorf("engine-level HookFactory: want rejection, got %v", err)
	}
}

// TestFleetValidation: empty stream, out-of-order arrivals, zero hosts.
func TestFleetValidation(t *testing.T) {
	if _, err := Run(nil, Config{Hosts: 1, Platform: sim.SharedConfig{EPCPages: 96}}); err == nil {
		t.Error("no arrivals: want error")
	}
	if _, err := Run(atTimeZero(enclaves(2)), Config{Hosts: 0,
		Platform: sim.SharedConfig{EPCPages: 96}}); err == nil {
		t.Error("zero hosts: want error")
	}
	arr := atTimeZero(enclaves(2))
	arr[0].At = 50
	closed := false
	arr[1].Enclave.Trace = nil
	arr[1].Enclave.Stream = closeProbe{onClose: func() { closed = true }}
	if _, err := Run(arr, Config{Hosts: 1, Platform: sim.SharedConfig{EPCPages: 96}}); err == nil ||
		!strings.Contains(err.Error(), "precedes") {
		t.Errorf("out-of-order arrivals: want error, got %v", err)
	}
	if !closed {
		t.Error("rejected run did not release arrival streams")
	}
}

// TestFleetRejectsHugePageSpace: a launch whose pages would grow a host's
// page space past epc.MaxPages fails the run with an error naming the
// host and the launch, not a panic, at any arrival time; the EPC's
// error stays reachable through the wrapping.
func TestFleetRejectsHugePageSpace(t *testing.T) {
	for _, at := range []uint64{0, 1 << 20} {
		arr := atTimeZero(enclaves(2))
		arr[1].At = at
		arr[1].Enclave.Pages = 1 << 62
		_, err := Run(arr, Config{Hosts: 1, Platform: sim.SharedConfig{EPCPages: 96}})
		if err == nil {
			t.Fatalf("arrival at %d: want host 0's page-space error, got nil", at)
		}
		for _, want := range []string{"fleet: host 0:", "enclave 1 (enc0001)", fmt.Sprint(epc.MaxPages)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("arrival at %d: error %q does not name %q", at, err, want)
			}
		}
		want := epc.PageSpaceError{Pages: 64 + 1<<62, Grow: true}
		if !errors.Is(err, want) {
			t.Errorf("arrival at %d: errors.Is(%q, %v) = false", at, err, want)
		}
		var pse epc.PageSpaceError
		if !errors.As(err, &pse) || pse != want {
			t.Errorf("arrival at %d: errors.As recovers %+v, want %+v", at, pse, want)
		}
	}
}

// TestFleetLatencyReport: faults produce finite, ordered percentiles;
// an idle host reports NaN, not zero.
func TestFleetLatencyReport(t *testing.T) {
	// One enclave on a two-host round-robin fleet: host 0 faults its
	// cold pages, host 1 stays idle for the whole run.
	res, err := Run(atTimeZero(enclaves(1)), Config{Hosts: 2, Policy: RoundRobin,
		Platform: sim.SharedConfig{EPCPages: 32}})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := res.Hosts[0], res.Hosts[1]
	if h0.Faults == 0 {
		t.Fatal("host 0 serviced no faults; the trace must fault its cold pages")
	}
	if !(h0.FaultP50 <= h0.FaultP95 && h0.FaultP95 <= h0.FaultP99) {
		t.Errorf("host 0 percentiles unordered: p50=%v p95=%v p99=%v", h0.FaultP50, h0.FaultP95, h0.FaultP99)
	}
	if h1.Faults != 0 || !math.IsNaN(h1.FaultP50) {
		t.Errorf("idle host 1: faults=%d p50=%v, want 0/NaN", h1.Faults, h1.FaultP50)
	}
	if res.Faults != h0.Faults {
		t.Errorf("fleet-wide faults %d != host 0's %d", res.Faults, h0.Faults)
	}
	if s := res.String(); !strings.Contains(s, "fleet-wide fault latency") {
		t.Errorf("Result.String missing the fleet-wide line:\n%s", s)
	}
}

// slowFailStream yields delay in-range accesses, then one access outside
// the enclave's pages-page range — an enclave that fails only after
// simulating a while.
func slowFailStream(delay int, pages uint64) mem.Stream {
	i := 0
	return mem.StreamFunc(func() (mem.Access, bool) {
		i++
		if i <= delay {
			return mem.Access{Page: mem.PageID(uint64(i) % pages), Compute: 1000}, true
		}
		if i == delay+1 {
			return mem.Access{Page: mem.PageID(pages) + 1, Compute: 1000}, true
		}
		return mem.Access{}, false
	})
}

// TestFleetErrorNamesHost: a host's mid-run failure comes back naming
// the host, and when several hosts fail the lowest-index host's error
// wins at every worker count — host 0 fails after 50k accesses, host 3
// on its first, yet the report is always host 0's, the error a
// sequential drain would have hit first. A late fifth arrival moves the
// failures from the final drain into an arrival barrier; both paths
// name the host.
func TestFleetErrorNamesHost(t *testing.T) {
	bad := func(delay int) sim.Enclave {
		return sim.Enclave{Name: fmt.Sprintf("bad-after-%d", delay),
			Stream: slowFailStream(delay, 8), Pages: 8, Scheme: sim.Baseline}
	}
	for _, barrier := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8, 0} {
			arr := atTimeZero([]sim.Enclave{bad(50_000), enclaves(1)[0], enclaves(1)[0], bad(0)})
			if barrier {
				arr = append(arr, Arrival{At: 1 << 40, Enclave: enclaves(1)[0]})
			}
			_, err := Run(arr, Config{Hosts: 4, Policy: RoundRobin,
				Platform: sim.SharedConfig{EPCPages: 64}, Workers: workers})
			if err == nil || !strings.Contains(err.Error(), "fleet: host 0:") {
				t.Errorf("barrier=%v workers=%d: want host 0's error, got %v", barrier, workers, err)
			}
		}
	}
}

// closeProbe is an empty stream that records Close — for asserting that
// shed and rejected arrivals release their streams.
type closeProbe struct {
	onClose func()
}

func (s closeProbe) Next() (mem.Access, bool) { return mem.Access{}, false }
func (s closeProbe) Close()                   { s.onClose() }

// TestHostReportQuota: hosts under an arbitration policy report each
// enclave's quota and resident frames; Global hosts report nil quotas.
// The platform's Quota flows to every host's engine unchanged.
func TestHostReportQuota(t *testing.T) {
	run := func(q arbiter.Policy) Result {
		t.Helper()
		arr := make([]Arrival, 0, 6)
		for i, e := range enclaves(6) {
			arr = append(arr, Arrival{At: uint64(i) * 50_000, Enclave: e})
		}
		res, err := Run(arr, Config{Hosts: 2, Policy: RoundRobin,
			Platform: sim.SharedConfig{EPCPages: 64, Quota: q}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	global := run(arbiter.Global)
	for h, hr := range global.Hosts {
		if hr.Quota != nil {
			t.Errorf("host %d: Global policy reported quotas %v", h, hr.Quota)
		}
		sum := 0
		for _, r := range hr.Resident {
			sum += r
		}
		if sum != hr.EPCResident {
			t.Errorf("host %d: per-enclave residents sum to %d, EPCResident %d", h, sum, hr.EPCResident)
		}
	}
	for _, q := range []arbiter.Policy{arbiter.Static, arbiter.Proportional, arbiter.Adaptive} {
		res := run(q)
		for h, hr := range res.Hosts {
			if len(hr.Quota) != len(hr.Enclaves) || len(hr.Resident) != len(hr.Enclaves) {
				t.Fatalf("quota %v host %d: %d quotas / %d residents for %d enclaves",
					q, h, len(hr.Quota), len(hr.Resident), len(hr.Enclaves))
			}
			qsum := 0
			for i, quota := range hr.Quota {
				if quota < 1 {
					t.Errorf("quota %v host %d enclave %d: quota %d below the floor", q, h, i, quota)
				}
				qsum += quota
			}
			if q != arbiter.Adaptive && qsum != 64 {
				t.Errorf("quota %v host %d: quotas sum to %d, want 64", q, h, qsum)
			}
		}
	}
}
