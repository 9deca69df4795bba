package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc"
	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/replay"
	"sgxpreload/internal/rng"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
)

// Driver differential: Drain and RunUntil run the heap root in bursts
// and skip the kernel's scan and sync below its quiet horizon, while a
// Step is one access. Every driver must nevertheless produce the same
// run as the others and as the per-access reference (the seed's linear
// argmin, syncing the kernel on every access): the same Results, the
// same event timeline and the same report replayed from that timeline. The cohorts cover every scheme, oracle
// prefetch notifications, background reclaim, every quota policy and
// every eviction policy (LRU included: Touch bumps its sequence).

// driverAccesses caps each workload enclave's stream.
const driverAccesses = 6000

// driverEnclave is one enclave of a cohort, rebuilt for every driver.
type driverEnclave struct {
	bench    string
	scheme   sim.Scheme
	prefetch bool // insert oracle prefetch notifications
	reclaim  bool
}

// driverCohort is one differential cell.
type driverCohort struct {
	name     string
	enclaves []driverEnclave
	loops    int            // extra hit-loop enclaves (see loopStream)
	traces   [][]mem.Access // extra two-page baseline enclaves
	platform sim.SharedConfig
	needs    []string // counters (see counters) Drain's run must move
}

// counters sums the cohort's Results into the paths a cohort claims to
// exercise.
func counters(res []sim.SharedResult) map[string]uint64 {
	c := map[string]uint64{}
	for _, r := range res {
		c["hits"] += r.Hits
		c["faults"] += r.Kernel.DemandFaults
		c["preloads"] += r.Kernel.PreloadsStarted
		c["scans"] += r.Kernel.Scans
		c["prefetches"] += r.PrefetchIssued
		c["notifies"] += r.Kernel.NotifyLoads
		c["background evictions"] += r.Kernel.BackgroundEvictions
	}
	return c
}

// driverSelections caches each benchmark's SIP selection.
var driverSelections = map[string]*sip.Selection{}

func driverWorkload(t *testing.T, bench string) *workload.Workload {
	t.Helper()
	w, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func driverSelection(t *testing.T, w *workload.Workload) *sip.Selection {
	t.Helper()
	if sel, ok := driverSelections[w.Name]; ok {
		return sel
	}
	p, err := sip.ProfileStream(w.Stream(workload.Train), 2048, w.ELRangePages(), dfp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel := sip.Select(p, 0.05, sip.MinSiteAccesses)
	driverSelections[w.Name] = sel
	return sel
}

// prefetched inserts, before every access, an oracle notification for
// the page touched lead accesses later.
func prefetched(trace []mem.Access, lead int) []mem.Access {
	out := make([]mem.Access, 0, 2*len(trace))
	for i, a := range trace {
		if j := i + lead; j < len(trace) {
			out = append(out, mem.Access{Page: trace[j].Page, Prefetch: true})
		}
		out = append(out, a)
	}
	return out
}

// loopStream cycles over pages pages with jittered compute: once its
// pages are in, every access hits, so the enclave runs long bursts and
// its scans fall due in the middle of them.
func loopStream(seed uint64, pages uint64, n int) mem.Stream {
	r := rng.New(seed)
	i := 0
	return mem.StreamFunc(func() (mem.Access, bool) {
		if i == n {
			return mem.Access{}, false
		}
		i++
		return mem.Access{Site: 1, Page: mem.PageID(uint64(i) % pages), Compute: 200 + r.Uint64n(400)}, true
	})
}

func (c driverCohort) build(t *testing.T) []sim.Enclave {
	t.Helper()
	var out []sim.Enclave
	for i, de := range c.enclaves {
		w := driverWorkload(t, de.bench)
		enc := sim.Enclave{
			Name:              fmt.Sprintf("%s/%d", de.bench, i),
			Pages:             w.ELRangePages(),
			Scheme:            de.scheme,
			BackgroundReclaim: de.reclaim,
		}
		if de.prefetch {
			enc.Trace = prefetched(mem.Collect(mem.Limit(w.Stream(workload.Ref), driverAccesses)), 16)
		} else {
			enc.Stream = mem.Limit(w.Stream(workload.Ref), driverAccesses)
		}
		if de.scheme.UsesSIP() {
			enc.Selection = driverSelection(t, w)
		}
		out = append(out, enc)
	}
	for i := 0; i < c.loops; i++ {
		out = append(out, sim.Enclave{
			Name:   fmt.Sprintf("loop/%d", i),
			Stream: loopStream(uint64(i)+1, 24, 3*driverAccesses),
			Pages:  24,
			Scheme: []sim.Scheme{sim.Baseline, sim.DFP}[i%2],
		})
	}
	for i, tr := range c.traces {
		out = append(out, sim.Enclave{Name: fmt.Sprintf("trace/%d", i), Trace: tr, Pages: 2, Scheme: sim.Baseline})
	}
	return out
}

// tieBreakTraces are two enclaves whose keys tie at the moment both
// fault: enclave 1 catches up on enclave 0's key with a hit, so the
// (key, enclave) order must stop its burst there and let enclave 0's
// fault take the channel first. With F the cost of a fault on an idle
// channel, enclave 0 faults at 0, resumes at F and issues its second
// fault at 5F; enclave 1 faults at 2F (the channel idle again), hits at
// 3F and issues its fault at 5F too.
func tieBreakTraces() [][]mem.Access {
	c := mem.DefaultCostModel()
	f := c.AEX + c.Load + c.Eresume + c.Hit
	return [][]mem.Access{
		{{Page: 0}, {Page: 1, Compute: 4 * f}},
		{{Page: 0, Compute: 2 * f}, {Page: 0}, {Page: 1, Compute: 2*f - c.Hit}},
	}
}

// driverCohorts are the differential cells.
func driverCohorts() []driverCohort {
	schemes := []driverEnclave{
		{bench: "lbm", scheme: sim.DFP},
		{bench: "deepsjeng", scheme: sim.DFPStop},
		{bench: "deepsjeng", scheme: sim.SIP},
		{bench: "mcf", scheme: sim.Hybrid},
		{bench: "microbenchmark", scheme: sim.Baseline, prefetch: true},
	}
	trio := []driverEnclave{
		{bench: "lbm", scheme: sim.DFPStop},
		{bench: "deepsjeng", scheme: sim.DFP},
		{bench: "microbenchmark", scheme: sim.Baseline},
	}
	cohorts := []driverCohort{
		{name: "schemes", enclaves: schemes, platform: sim.SharedConfig{EPCPages: 1024},
			needs: []string{"preloads", "prefetches", "notifies"}},
		{name: "solo", enclaves: schemes[:1], platform: sim.SharedConfig{EPCPages: 512}},
		{name: "reclaim", enclaves: []driverEnclave{
			{bench: "lbm", scheme: sim.DFP, reclaim: true},
			{bench: "deepsjeng", scheme: sim.SIP, reclaim: true},
			{bench: "microbenchmark", scheme: sim.Baseline, reclaim: true},
		}, platform: sim.SharedConfig{EPCPages: 768}, needs: []string{"background evictions"}},
		// Hit loops beside a faulting enclave, with a short scan period:
		// scans fall due inside bursts and between enclaves' turns.
		{name: "hit-loops", enclaves: trio[:1], loops: 3,
			platform: sim.SharedConfig{EPCPages: 1024, ScanPeriod: 40_000}},
		{name: "tie-break", traces: tieBreakTraces(), platform: sim.SharedConfig{EPCPages: 8, ScanPeriod: 50_000}},
	}
	for _, q := range arbiter.Policies() {
		cohorts = append(cohorts, driverCohort{name: "quota-" + q.String(), enclaves: trio, loops: 1,
			platform: sim.SharedConfig{EPCPages: 768, Quota: q}})
	}
	for _, p := range []epc.Policy{epc.PolicyClock, epc.PolicyFIFO, epc.PolicyLRU, epc.PolicyRandom} {
		cohorts = append(cohorts, driverCohort{name: "evict-" + p.String(), enclaves: trio, loops: 1,
			platform: sim.SharedConfig{EPCPages: 768, EvictPolicy: p}})
	}
	return cohorts
}

// driverRun is one driver's artifacts.
type driverRun struct {
	results, jsonl, report string
}

// render captures a hooked run's artifacts, the report replayed from the
// serialized timeline.
func render(t *testing.T, results []sim.SharedResult, rec *obs.Recorder) driverRun {
	t.Helper()
	var b strings.Builder
	if err := obs.WriteJSONL(&b, rec.Events()); err != nil {
		t.Fatal(err)
	}
	events, err := replay.ReadJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return driverRun{
		results: fmt.Sprintf("%#v", results),
		jsonl:   b.String(),
		report:  obs.BuildReport(events).String(),
	}
}

// drivers are the ways to run a cohort. Each builds its own engine over
// freshly built enclaves.
var drivers = []struct {
	name string
	run  func(t *testing.T, encs []sim.Enclave, cfg sim.SharedConfig, seed uint64) []sim.SharedResult
}{
	{"Drain", func(t *testing.T, encs []sim.Enclave, cfg sim.SharedConfig, _ uint64) []sim.SharedResult {
		eng := newEngine(t, encs, cfg)
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		return eng.Results()
	}},
	{"Step", func(t *testing.T, encs []sim.Enclave, cfg sim.SharedConfig, _ uint64) []sim.SharedResult {
		eng := newEngine(t, encs, cfg)
		for {
			more, err := eng.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				return eng.Results()
			}
		}
	}},
	{"RunUntil", func(t *testing.T, encs []sim.Enclave, cfg sim.SharedConfig, seed uint64) []sim.SharedResult {
		eng := newEngine(t, encs, cfg)
		r := rng.New(seed)
		for {
			next, ok := eng.NextKey()
			if !ok {
				return eng.Results()
			}
			// Barriers land exactly on the next event, just before it,
			// or at a random distance past it (up to a few faults).
			var t0 uint64
			switch r.Intn(4) {
			case 0:
				t0 = next
			case 1:
				t0 = next - min(next, 1)
			default:
				t0 = next + r.Uint64n(300_000)
			}
			if err := eng.RunUntil(t0); err != nil {
				t.Fatal(err)
			}
			if k, ok := eng.NextKey(); ok && k <= t0 {
				t.Fatalf("RunUntil(%d) returned with an event at %d", t0, k)
			}
		}
	}},
	{"per-access", func(t *testing.T, encs []sim.Enclave, cfg sim.SharedConfig, _ uint64) []sim.SharedResult {
		eng := newEngine(t, encs, cfg)
		if err := sim.DrainPerAccess(eng); err != nil {
			t.Fatal(err)
		}
		return eng.Results()
	}},
	{"fleet", func(t *testing.T, encs []sim.Enclave, cfg sim.SharedConfig, _ uint64) []sim.SharedResult {
		arr := make([]fleet.Arrival, len(encs))
		for i, e := range encs {
			arr[i] = fleet.Arrival{Enclave: e}
		}
		res, err := fleet.Run(arr, fleet.Config{Hosts: 1, Platform: cfg, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Hosts[0].Enclaves
	}},
}

func newEngine(t *testing.T, encs []sim.Enclave, cfg sim.SharedConfig) *sim.Engine {
	t.Helper()
	eng, err := sim.New(encs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestDriverDifferential runs every cohort through every driver and
// requires each driver's artifacts to equal Drain's.
func TestDriverDifferential(t *testing.T) {
	for ci, c := range driverCohorts() {
		t.Run(c.name, func(t *testing.T) {
			var want driverRun
			for i, d := range drivers {
				rec := obs.NewRecorder()
				cfg := c.platform
				cfg.Hook = rec
				res := d.run(t, c.build(t), cfg, uint64(ci)+1)
				got := render(t, res, rec)
				if i == 0 {
					want = got
					n := counters(res)
					for _, k := range append([]string{"hits", "faults", "scans"}, c.needs...) {
						if n[k] == 0 {
							t.Fatalf("the cohort's run has no %s", k)
						}
					}
					continue
				}
				if got.results != want.results {
					t.Errorf("%s: Results diverge from Drain:\n  %s %.400s\n  Drain %.400s", d.name, d.name, got.results, want.results)
				}
				if got.jsonl != want.jsonl {
					t.Errorf("%s: timeline diverges from Drain (%d vs %d bytes): %s", d.name,
						len(got.jsonl), len(want.jsonl), firstDiff(got.jsonl, want.jsonl))
				}
				if got.report != want.report {
					t.Errorf("%s: replayed report diverges from Drain", d.name)
				}
			}
		})
	}
}

// firstDiff locates the first line where two timelines differ.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other (%d vs %d lines)", len(la), len(lb))
}
