package fleet

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/pool"
	"sgxpreload/internal/rng"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/workload"
)

// Static placement is a t=0 round-robin fleet. The differential below
// pins that equivalence against an independent reference: enclave i
// runs in group i mod H, and every group is its own sim.RunShared domain
// recorded through its own hook. The fleet must reproduce each group's
// per-enclave results (%#v) and its JSONL timeline exactly, at every
// host count and quota policy, including host counts above the
// population that leave hosts idle.

// perGroupReference runs the static-sharding reference: one RunShared
// domain per non-empty group, each recorded to its own timeline. Empty
// groups (hosts > enclaves) yield nil results and an event-free
// timeline.
func perGroupReference(t *testing.T, encs []sim.Enclave, hosts int, cfg sim.SharedConfig) ([][]sim.SharedResult, []string) {
	t.Helper()
	groups := make([][]sim.Enclave, hosts)
	for i, e := range encs {
		groups[i%hosts] = append(groups[i%hosts], e)
	}
	results := make([][]sim.SharedResult, hosts)
	timelines := make([]string, hosts)
	for h, g := range groups {
		tl := newTimeline()
		if len(g) > 0 {
			gcfg := cfg
			gcfg.Hook = tl
			res, err := sim.RunShared(g, gcfg)
			if err != nil {
				t.Fatalf("reference group %d: %v", h, err)
			}
			results[h] = res
		}
		timelines[h] = tl.digest(t)
	}
	return results, timelines
}

// timelineDigest is a hook that streams its domain's JSONL trace — the
// bytes sgxsim -trace writes — into a SHA-256, so the real cohort's
// multi-megabyte timelines are compared without being held in memory.
type timelineDigest struct {
	*obs.StreamSink
	sum hash.Hash
}

func newTimeline() timelineDigest {
	sum := sha256.New()
	return timelineDigest{obs.NewStreamSink(sum, obs.FormatJSONL), sum}
}

// digest closes the sink and renders the event count and hash.
func (d timelineDigest) digest(t *testing.T) string {
	t.Helper()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d events, sha256 %x", d.Events(), d.sum.Sum(nil))
}

// realCohort is the fleet-sharded study's population: lbm, deepsjeng,
// mcf and microbenchmark twice over, all under DFP-stop.
func realCohort(t *testing.T) []sim.Enclave {
	t.Helper()
	names := []string{"lbm", "deepsjeng", "mcf", "microbenchmark"}
	out := make([]sim.Enclave, 2*len(names))
	for i := range out {
		w, err := workload.ByName(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(names) {
			out[i] = out[i-len(names)]
		} else {
			out[i] = sim.Enclave{Trace: w.Generate(workload.Ref), Pages: w.ELRangePages(), Scheme: sim.DFPStop}
		}
		out[i].Name = fmt.Sprintf("%s/%d", w.Name, i/len(names))
	}
	return out
}

// TestStaticFleetDifferential: a t=0 RoundRobin fleet equals the
// per-group RunShared reference, result for result and event for event.
func TestStaticFleetDifferential(t *testing.T) {
	type cohort struct {
		name  string
		encs  []sim.Enclave
		epc   int
		hosts []int
	}
	cohorts := []cohort{
		{"tied-5", enclaves(5), 64, []int{1, 2, 3, 4, 8}},
		{"tied-32", enclaves(32), 64, []int{1, 2, 3, 4, 8}},
		{"fleet-sharded", realCohort(t), 2048, []int{2}},
	}
	for _, c := range cohorts {
		for _, hosts := range c.hosts {
			for _, q := range arbiter.Policies() {
				t.Run(fmt.Sprintf("%s/H=%d/%s", c.name, hosts, q), func(t *testing.T) {
					cfg := sim.SharedConfig{EPCPages: c.epc, Quota: q}
					wantRes, wantTL := perGroupReference(t, c.encs, hosts, cfg)

					tls := make([]timelineDigest, hosts)
					fcfg := cfg
					fcfg.HookFactory = func(h int) obs.Hook {
						tls[h] = newTimeline()
						return tls[h]
					}
					res, err := Run(atTimeZero(c.encs), Config{Hosts: hosts, Policy: RoundRobin,
						Platform: fcfg, Workers: 4})
					if err != nil {
						t.Fatal(err)
					}
					for h, hr := range res.Hosts {
						if got := tls[h].digest(t); got != wantTL[h] {
							t.Errorf("host %d: JSONL timeline diverges from the reference: %s vs %s",
								h, got, wantTL[h])
						}
						if len(wantRes[h]) == 0 {
							checkIdleHost(t, res, h)
							continue
						}
						if a, b := fmt.Sprintf("%#v", hr.Enclaves), fmt.Sprintf("%#v", wantRes[h]); a != b {
							t.Errorf("host %d: results diverge from the reference:\n  fleet %.300s\n  ref   %.300s", h, a, b)
						}
					}
				})
			}
		}
	}
}

// checkIdleHost asserts host h received nothing and reports as idle:
// zero faults, NaN percentiles, and "-" in the rendered table.
func checkIdleHost(t *testing.T, res Result, h int) {
	t.Helper()
	hr := res.Hosts[h]
	if len(hr.Enclaves) != 0 || hr.Faults != 0 {
		t.Errorf("idle host %d: %d enclaves, %d faults", h, len(hr.Enclaves), hr.Faults)
	}
	for _, p := range []float64{hr.FaultP50, hr.FaultP95, hr.FaultP99} {
		if !math.IsNaN(p) {
			t.Errorf("idle host %d: percentile %v, want NaN", h, p)
		}
	}
	for _, line := range strings.Split(res.String(), "\n") {
		if f := strings.Fields(line); len(f) == 7 && f[0] == fmt.Sprint(h) {
			if f[4] != "-" || f[5] != "-" || f[6] != "-" {
				t.Errorf("idle host %d renders %q, want - percentiles", h, line)
			}
			return
		}
	}
	t.Errorf("no table row for idle host %d in:\n%s", h, res.String())
}

// runBarriered is the reference fleet loop: at every distinct arrival
// timestamp every host runs until that time, then the batch is bucketed,
// placed and admitted in stream order. Run reaches the same admissions
// at the same virtual times while settling hosts only before a placement
// that reads their signals; the differential below holds it to this
// loop.
func runBarriered(arrivals []Arrival, cfg Config) (Result, error) {
	if err := validate(arrivals, cfg); err != nil {
		CloseArrivals(arrivals)
		return Result{}, err
	}
	c, err := newCluster(cfg)
	if err != nil {
		CloseArrivals(arrivals)
		return Result{}, err
	}
	advance := func(step func(*sim.Engine) error) error {
		return pool.Run(cfg.Workers, len(c.hosts), func(h int) error {
			if err := step(c.hosts[h].eng); err != nil {
				return fmt.Errorf("fleet: host %d: %w", h, err)
			}
			return nil
		})
	}
	bucket := newTokenBucket(cfg.AdmitPeriod, cfg.AdmitBurst)
	res := Result{Policy: cfg.Policy, Placement: make([]int, 0, len(arrivals))}
	pl := newPlacer(cfg)
	i := 0
	for i < len(arrivals) {
		t := arrivals[i].At
		if err := advance(func(e *sim.Engine) error { return e.RunUntil(t) }); err != nil {
			c.close()
			CloseArrivals(arrivals[i:])
			return Result{}, err
		}
		for i < len(arrivals) && arrivals[i].At == t {
			a := arrivals[i]
			i++
			if !bucket.take(t) {
				res.Placement = append(res.Placement, -1)
				res.Shed = append(res.Shed, a.Enclave.Name)
				mem.Close(a.Enclave.Stream)
				continue
			}
			h := pl.place(c.hosts, a.Enclave.Name)
			if err := c.hosts[h].eng.Admit(a.Enclave, t); err != nil {
				c.close()
				CloseArrivals(arrivals[i:])
				return Result{}, fmt.Errorf("fleet: host %d: %w", h, err)
			}
			res.Placement = append(res.Placement, h)
		}
	}
	if err := advance((*sim.Engine).Drain); err != nil {
		c.close()
		return Result{}, err
	}
	c.report(&res)
	return res, nil
}

// randomArrivals draws an arrival stream mixing ties at one timestamp,
// bursts, short gaps inside running work and late arrivals that find
// every earlier launch finished, over four workload keys so Affinity
// sees repeat launches. About a third of the accesses, first ones
// included, carry zero compute, so an admission's first access falls at
// its arrival time.
func randomArrivals(r *rng.Source) []Arrival {
	schemes := []sim.Scheme{sim.Baseline, sim.DFP, sim.DFPStop}
	out := make([]Arrival, 1+r.Intn(16))
	var t uint64
	for i := range out {
		switch r.Intn(6) {
		case 0, 1: // a tie with the previous arrival
		case 2:
			t += 1 + r.Uint64n(1000)
		case 3:
			t += 1 + r.Uint64n(200_000)
		case 4:
			t += 1 << 30
		default:
			t += r.Uint64n(20_000)
		}
		pages := 8 + r.Uint64n(40)
		trace := make([]mem.Access, 20+r.Intn(100))
		for j := range trace {
			var compute uint64
			if !r.Chance(0.3) {
				compute = r.Uint64n(3000)
			}
			trace[j] = mem.Access{Page: mem.PageID(r.Uint64n(pages)), Compute: compute}
		}
		out[i] = Arrival{At: t, Enclave: sim.Enclave{Name: fmt.Sprintf("w%d/%d", r.Intn(4), i),
			Trace: trace, Pages: pages, Scheme: schemes[r.Intn(len(schemes))]}}
	}
	return out
}

// runDigested runs the fleet through run with a JSONL digest recorder
// on every host, returning the Result's %#v and each host's digest.
func runDigested(t *testing.T, run func([]Arrival, Config) (Result, error), arrivals []Arrival, cfg Config) (string, []string) {
	t.Helper()
	tls := make([]timelineDigest, cfg.Hosts)
	cfg.Platform.HookFactory = func(h int) obs.Hook {
		tls[h] = newTimeline()
		return tls[h]
	}
	res, err := run(arrivals, cfg)
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]string, len(tls))
	for h := range tls {
		digests[h] = tls[h].digest(t)
	}
	return fmt.Sprintf("%#v", res), digests
}

// TestSyncDifferential: over random arrival streams, Run equals the
// barriered reference — the same %#v Result and the same JSONL bytes on
// every host — for every placement and quota policy, 1 to 4 hosts,
// admission control on and off, at 1, 2 and 4 workers.
func TestSyncDifferential(t *testing.T) {
	quotas := arbiter.Policies()
	for k := 0; k < 2*len(Policies())*len(quotas)*4*2; k++ {
		r := rng.New(uint64(k) + 1)
		cfg := Config{
			Policy:   Policies()[k%4],
			Platform: sim.SharedConfig{EPCPages: 32 + r.Intn(64), Quota: quotas[k/4%len(quotas)]},
			Hosts:    1 + k/16%4,
		}
		if k/64%2 == 1 {
			cfg.AdmitPeriod, cfg.AdmitBurst = 1+r.Uint64n(50_000), 1+r.Intn(3)
		}
		arrivals := randomArrivals(r)
		name := fmt.Sprintf("%d/%s/%s/H=%d/admit=%d", k, cfg.Policy, cfg.Platform.Quota, cfg.Hosts, cfg.AdmitPeriod)
		t.Run(name, func(t *testing.T) {
			wantRes, wantTL := runDigested(t, runBarriered, arrivals, cfg)
			for _, workers := range []int{1, 2, 4} {
				wcfg := cfg
				wcfg.Workers = workers
				gotRes, gotTL := runDigested(t, Run, arrivals, wcfg)
				if gotRes != wantRes {
					t.Errorf("workers=%d: result diverges from the barriered reference:\n  run %.400s\n  ref %.400s",
						workers, gotRes, wantRes)
				}
				for h := range wantTL {
					if gotTL[h] != wantTL[h] {
						t.Errorf("workers=%d host %d: JSONL diverges from the barriered reference: %s vs %s",
							workers, h, gotTL[h], wantTL[h])
					}
				}
			}
		})
	}
}
