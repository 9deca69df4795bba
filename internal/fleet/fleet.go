// Package fleet simulates a cluster of SGX hosts on one shared virtual
// clock. The paper's §5.6 scales contention to many enclaves on one
// EPC; this package scales that to many *independent* EPC domains —
// hosts that receive work over time. An open-loop front door admits
// enclave-launch requests from a deterministic arrival stream, a
// token-bucket admission controller sheds launches past a configured
// sustained rate, and a pluggable placement policy assigns each
// admitted enclave to a host using the hosts' live signals — so
// placement reacts to the contention the earlier launches created.
// Static sharding is the special case: RoundRobin placement with every
// arrival at t = 0 partitions the population i mod H before anything
// runs, and each host then simulates exactly the sim.RunShared domain
// of its group.
//
// Shared clock, deterministic schedule. Every host is its own EPC
// domain — own epc.EPC, own load-channel group, own dynamic engine
// (sim.NewDynamic) — and enclave clocks are absolute virtual time (an
// enclave admitted at T starts its clock at T). Hosts share no
// simulated state, so between arrival timestamps they advance
// independently, in parallel, with no cross-host synchronization. At
// each arrival timestamp T the fleet barriers: every host runs until
// its next event is past T, then the batch of arrivals at T is
// processed in stream order — bucket check, placement, admission —
// against host signals that are fully settled at T. Parallelism lives
// only between barriers, so the entire run — placements, sheds, every
// per-enclave result, every latency percentile — is identical at any
// worker count. A one-host fleet with every arrival at time zero and no
// admission control is byte-identical to sim.RunShared over the same
// enclaves: both reduce to the same admit-loop at t = 0 on the same
// engine.
package fleet

import (
	"fmt"
	"math"
	"strings"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/pool"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/stats"
)

// Arrival is one enclave-launch request at the fleet's front door.
type Arrival struct {
	// At is the launch's virtual-cycle timestamp. A run's arrivals must
	// be in non-decreasing At order — the front door is a stream, not a
	// queue to be sorted.
	At uint64
	// Enclave is the enclave to launch (see sim.Enclave).
	Enclave sim.Enclave
}

// Policy selects how admitted enclaves are placed onto hosts.
type Policy uint8

const (
	// RoundRobin places the i-th admitted enclave on host i mod H —
	// oblivious to load, the static baseline.
	RoundRobin Policy = iota
	// LeastLoaded places on the host with the fewest running enclaves
	// (lowest sim.Engine.Running), ties to the lower host index.
	LeastLoaded
	// PressureAware places on the host with the lowest EPC occupancy
	// (fewest resident frames, sim.Engine.EPCResident), ties first to
	// the fewest running enclaves, then to the lower host index — so a
	// cold fleet spreads instead of stacking host 0.
	PressureAware
	// Affinity pins repeat launches of a named workload to the host
	// that ran it last — the cache-warmth policy: a host that already
	// paged a workload's working set in services its re-launch with the
	// pages (and the DFP stream history) it built last time. A
	// workload's first launch falls back to LeastLoaded placement. The
	// workload key is the enclave name with the CLI's "/<launch-index>"
	// suffix stripped, so `sgxsim -fleet` repeat launches of one
	// benchmark share a key.
	Affinity
)

var policyNames = map[Policy]string{
	RoundRobin:    "round-robin",
	LeastLoaded:   "least-loaded",
	PressureAware: "pressure",
	Affinity:      "affinity",
}

// String returns the policy's flag name.
func (p Policy) String() string {
	if n, ok := policyNames[p]; ok {
		return n
	}
	return fmt.Sprintf("policy(%d)", p)
}

// Policies returns every policy in declaration order.
func Policies() []Policy { return []Policy{RoundRobin, LeastLoaded, PressureAware, Affinity} }

// PolicyByName resolves a flag name to its Policy.
func PolicyByName(name string) (Policy, error) {
	for p, n := range policyNames {
		if n == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("fleet: unknown placement policy %q (want round-robin, least-loaded, pressure, or affinity)", name)
}

// Config configures a fleet run.
type Config struct {
	// Hosts is the number of independent EPC domains; must be >= 1.
	Hosts int
	// Policy selects placement for admitted enclaves.
	Policy Policy
	// Platform is every host's platform configuration (EPCPages is per
	// host). Platform.Hook is only valid for a one-host fleet; use
	// Platform.HookFactory for per-host recording — the fleet resolves
	// it once per host index before building the host's engine.
	Platform sim.SharedConfig
	// AdmitPeriod is the token bucket's refill interval in cycles: the
	// sustained admission rate is one launch per AdmitPeriod cycles.
	// Zero disables admission control (nothing is shed).
	AdmitPeriod uint64
	// AdmitBurst is the bucket capacity — how many launches may be
	// admitted back-to-back before the rate limit bites. Defaults to 1
	// when AdmitPeriod is set.
	AdmitBurst int
	// Workers bounds the goroutines advancing hosts between arrival
	// barriers; <= 0 means GOMAXPROCS. Never affects results.
	Workers int
}

// HostReport is one host's outcome.
type HostReport struct {
	// Enclaves holds the host's per-enclave results in admission order.
	Enclaves []sim.SharedResult
	// EPCResident is the host's occupied frame count at end of run.
	EPCResident int
	// Resident holds each enclave's resident frame count at end of run,
	// indexed like Enclaves; the entries sum to EPCResident.
	Resident []int
	// Quota holds each enclave's EPC quota under the host's arbitration
	// policy (Platform.Quota), indexed like Enclaves; nil when the host
	// runs the Global policy (no quotas).
	Quota []int
	// Faults is the number of demand faults the host serviced.
	Faults int
	// FaultP50, FaultP95, and FaultP99 are the host's fault-service
	// latency percentiles in cycles (NaN when the host saw no faults).
	FaultP50, FaultP95, FaultP99 float64
}

// Result is a fleet run's outcome.
type Result struct {
	// Policy echoes the placement policy that produced the run.
	Policy Policy
	// Hosts holds per-host reports in host order.
	Hosts []HostReport
	// Placement maps each arrival index to the host that received it,
	// or -1 if the admission controller shed it.
	Placement []int
	// Shed holds the names of shed enclaves in arrival order.
	Shed []string
	// Faults is the fleet-wide demand-fault count.
	Faults int
	// FaultP50, FaultP95, and FaultP99 are fleet-wide fault-service
	// latency percentiles in cycles, pooled over every host's faults
	// (NaN when the whole fleet saw none).
	FaultP50, FaultP95, FaultP99 float64
}

// Run drives the arrival stream through the fleet to completion.
func Run(arrivals []Arrival, cfg Config) (Result, error) {
	fail := func(err error) (Result, error) {
		CloseArrivals(arrivals)
		return Result{}, err
	}
	if len(arrivals) == 0 {
		return fail(fmt.Errorf("fleet: need at least one arrival"))
	}
	if cfg.Hosts < 1 {
		return fail(fmt.Errorf("fleet: need at least one host, got %d", cfg.Hosts))
	}
	if cfg.Platform.Hook != nil && cfg.Platform.HookFactory != nil {
		return fail(fmt.Errorf("fleet: Platform takes Hook or HookFactory, not both"))
	}
	if cfg.Platform.Hook != nil && cfg.Hosts > 1 {
		return fail(fmt.Errorf("fleet: cannot share one hook across %d hosts (set HookFactory for per-host recording)", cfg.Hosts))
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i].At < arrivals[i-1].At {
			return fail(fmt.Errorf("fleet: arrival %d at t=%d precedes arrival %d at t=%d; the front door is a time-ordered stream",
				i, arrivals[i].At, i-1, arrivals[i-1].At))
		}
	}

	// Build the hosts: each its own dynamic engine with a latency
	// sampler teed in front of the host's (optional) recording hook.
	hosts := make([]*sim.Engine, cfg.Hosts)
	samplers := make([]*obs.FaultLatencySampler, cfg.Hosts)
	for h := range hosts {
		pcfg := cfg.Platform
		if pcfg.HookFactory != nil {
			pcfg.Hook = cfg.Platform.HookFactory(h)
			pcfg.HookFactory = nil
		}
		samplers[h] = obs.NewFaultLatencySampler()
		pcfg.Hook = obs.Tee(samplers[h], pcfg.Hook)
		eng, err := sim.NewDynamic(pcfg)
		if err != nil {
			for _, e := range hosts[:h] {
				e.Close()
			}
			return fail(err)
		}
		hosts[h] = eng
	}
	closeHosts := func() {
		for _, e := range hosts {
			if e != nil {
				e.Close()
			}
		}
	}

	// advance runs step on every host on the worker pool; a failure names
	// its host, and the lowest-index host's error wins at any worker
	// count.
	advance := func(step func(*sim.Engine) error) error {
		return pool.Run(cfg.Workers, len(hosts), func(h int) error {
			if err := step(hosts[h]); err != nil {
				return fmt.Errorf("fleet: host %d: %w", h, err)
			}
			return nil
		})
	}

	bucket := newTokenBucket(cfg.AdmitPeriod, cfg.AdmitBurst)
	res := Result{Policy: cfg.Policy, Placement: make([]int, 0, len(arrivals))}
	pl := &placer{policy: cfg.Policy, affinity: make(map[string]int)}

	i := 0
	for i < len(arrivals) {
		t := arrivals[i].At
		// Barrier: settle every host at t so the batch's placement
		// decisions read signals no later arrival could change.
		if err := advance(func(e *sim.Engine) error { return e.RunUntil(t) }); err != nil {
			closeHosts()
			CloseArrivals(arrivals[i:])
			return Result{}, err
		}
		// Admit the whole batch at t back-to-back, in stream order.
		for i < len(arrivals) && arrivals[i].At == t {
			a := arrivals[i]
			i++
			if !bucket.take(t) {
				res.Placement = append(res.Placement, -1)
				res.Shed = append(res.Shed, a.Enclave.Name)
				mem.Close(a.Enclave.Stream)
				continue
			}
			h := pl.place(hosts, a.Enclave.Name)
			if err := hosts[h].Admit(a.Enclave, t); err != nil {
				// Admit closed the failing enclave's stream; engines own
				// the earlier ones and the tail never reached an engine.
				closeHosts()
				CloseArrivals(arrivals[i:])
				return Result{}, fmt.Errorf("fleet: host %d: %w", h, err)
			}
			res.Placement = append(res.Placement, h)
		}
	}
	// The stream is exhausted; drain every host to completion.
	if err := advance((*sim.Engine).Drain); err != nil {
		closeHosts()
		return Result{}, err
	}

	// Assemble the reports: per-host and fleet-wide pooled percentiles.
	pooled := obs.NewFaultLatencySampler()
	for h, eng := range hosts {
		s := samplers[h]
		pooled.Merge(s)
		enclaves := eng.Results()
		resident := make([]int, len(enclaves))
		for i := range resident {
			resident[i] = eng.OwnerResident(i)
		}
		var quota []int
		if eng.QuotaPolicy() != arbiter.Global {
			quota = make([]int, len(enclaves))
			for i := range quota {
				quota[i] = eng.Quota(i)
			}
		}
		res.Hosts = append(res.Hosts, HostReport{
			Enclaves:    enclaves,
			EPCResident: eng.EPCResident(),
			Resident:    resident,
			Quota:       quota,
			Faults:      s.Count(),
			FaultP50:    s.Percentile(50),
			FaultP95:    s.Percentile(95),
			FaultP99:    s.Percentile(99),
		})
	}
	res.Faults = pooled.Count()
	res.FaultP50 = pooled.Percentile(50)
	res.FaultP95 = pooled.Percentile(95)
	res.FaultP99 = pooled.Percentile(99)
	return res, nil
}

// placer carries the placement state one run accumulates: the
// round-robin cursor and, for Affinity, the last host each workload ran
// on. Placements happen in stream order after the arrival barrier, so
// both are deterministic functions of the arrival stream alone.
type placer struct {
	policy   Policy
	admitted int            // round-robin cursor over admitted launches
	affinity map[string]int // workload key -> host of its last launch
}

// place picks the host for the next admitted enclave.
func (p *placer) place(hosts []*sim.Engine, name string) int {
	p.admitted++
	switch p.policy {
	case LeastLoaded:
		return leastLoaded(hosts)
	case PressureAware:
		best := 0
		for h := 1; h < len(hosts); h++ {
			hr, br := hosts[h].EPCResident(), hosts[best].EPCResident()
			if hr < br || (hr == br && hosts[h].Running() < hosts[best].Running()) {
				best = h
			}
		}
		return best
	case Affinity:
		key := affinityKey(name)
		if h, ok := p.affinity[key]; ok {
			return h
		}
		h := leastLoaded(hosts)
		p.affinity[key] = h
		return h
	default: // RoundRobin
		return (p.admitted - 1) % len(hosts)
	}
}

// leastLoaded returns the host with the fewest running enclaves, ties
// to the lower host index.
func leastLoaded(hosts []*sim.Engine) int {
	best := 0
	for h := 1; h < len(hosts); h++ {
		if hosts[h].Running() < hosts[best].Running() {
			best = h
		}
	}
	return best
}

// affinityKey strips the CLI's per-launch "/<index>" suffix so repeat
// launches of one workload share an affinity key; any other name is its
// own key.
func affinityKey(name string) string {
	i := strings.LastIndexByte(name, '/')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// tokenBucket is the admission controller, in virtual time and integer
// arithmetic: one token per period cycles, at most burst banked, the
// bucket full at t = 0. take at a timestamp never depends on float
// rounding, so shedding is deterministic.
type tokenBucket struct {
	period uint64
	burst  int
	tokens int
	last   uint64 // refill progress: tokens accrued up to this cycle
}

func newTokenBucket(period uint64, burst int) *tokenBucket {
	if period == 0 {
		return &tokenBucket{} // disabled: take always succeeds
	}
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{period: period, burst: burst, tokens: burst}
}

// take consumes a token at virtual time t, reporting false (shed) when
// the bucket is empty. Arrivals reach it in time order, so t never
// regresses past last.
func (b *tokenBucket) take(t uint64) bool {
	if b.period == 0 {
		return true
	}
	accrued := (t - b.last) / b.period
	if accrued > 0 {
		if add := uint64(b.burst - b.tokens); accrued > add {
			accrued = add
		}
		b.tokens += int(accrued)
		b.last += accrued * b.period
		if b.tokens == b.burst {
			// A full bucket stops accruing: restart the refill clock at
			// t so idle time is not banked beyond the burst.
			b.last = t
		}
	}
	if b.tokens == 0 {
		return false
	}
	b.tokens--
	return true
}

// CloseArrivals releases the closeable streams of arrivals that will
// never reach an engine — for callers that built an arrival slice (for
// instance by compiling a workload spec) and then abandon it without
// running, and for Run's own validation and mid-run failure paths. Run
// closes its arrivals' streams on every path, so callers that hand the
// slice to Run must not also call this.
func CloseArrivals(arrivals []Arrival) {
	for _, a := range arrivals {
		mem.Close(a.Enclave.Stream)
	}
}

// String renders the fleet result: the per-host occupancy and latency
// table, then the fleet-wide pooled percentiles and shed count.
func (r Result) String() string {
	t := &stats.Table{Header: []string{"host", "enclaves", "resident", "faults", "p50", "p95", "p99"}}
	for h, hr := range r.Hosts {
		t.Add(h, len(hr.Enclaves), hr.EPCResident, hr.Faults,
			cyc(hr.FaultP50), cyc(hr.FaultP95), cyc(hr.FaultP99))
	}
	return fmt.Sprintf("Fleet: %d hosts, %s placement, %d launches (%d shed)\n",
		len(r.Hosts), r.Policy, len(r.Placement), len(r.Shed)) +
		t.String() +
		fmt.Sprintf("fleet-wide fault latency: p50 %s  p95 %s  p99 %s over %d faults\n",
			cyc(r.FaultP50), cyc(r.FaultP95), cyc(r.FaultP99), r.Faults)
}

// cyc renders a latency percentile, "-" when no faults were sampled.
func cyc(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}
