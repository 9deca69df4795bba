package fleet

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/obs"
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
