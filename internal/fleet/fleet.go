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
// simulated state, so they advance independently, in parallel, and
// synchronize only where a placement reads their signals. Arrivals are
// processed in stream order — bucket check, placement — and a placed
// launch joins its host's queue of admissions not yet applied. Only a
// placement that reads live host signals (least-loaded, pressure-aware,
// and an affinity workload's first launch, on two or more hosts) first
// settles every host at its arrival time T: each applies its queue in
// stream order, one RunUntil per distinct timestamp and then Admit, and
// runs until its next event is past T. Round-robin, a known affinity
// key, a one-host fleet and a shed launch never wait on another host.
// After the stream ends each host applies its queue and drains. Every
// host thus sees the same admissions at the same virtual times whatever
// the other hosts do, every placement reads signals no later arrival
// could change, and the entire run — placements, sheds, every
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
	// Workers bounds the goroutines advancing hosts between
	// synchronizations; <= 0 means GOMAXPROCS. Never affects results.
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
	if err := validate(arrivals, cfg); err != nil {
		CloseArrivals(arrivals)
		return Result{}, err
	}
	c, err := newCluster(cfg)
	if err != nil {
		CloseArrivals(arrivals)
		return Result{}, err
	}

	bucket := newTokenBucket(cfg.AdmitPeriod, cfg.AdmitBurst)
	res := Result{Policy: cfg.Policy, Placement: make([]int, 0, len(arrivals))}
	pl := newPlacer(cfg)
	for i, a := range arrivals {
		if !bucket.take(a.At) {
			res.Placement = append(res.Placement, -1)
			res.Shed = append(res.Shed, a.Enclave.Name)
			mem.Close(a.Enclave.Stream)
			continue
		}
		if pl.readsSignals(a.Enclave.Name) {
			// Settle every host at a.At so the placement reads signals
			// no later arrival could change.
			if onSync != nil {
				onSync()
			}
			if err := c.settle(a.At); err != nil {
				c.close()
				CloseArrivals(arrivals[i:])
				return Result{}, err
			}
		}
		h := pl.place(c.hosts, a.Enclave.Name)
		c.hosts[h].queue = append(c.hosts[h].queue, a)
		res.Placement = append(res.Placement, h)
	}
	// The stream is exhausted; each host applies what it still holds
	// and drains to completion.
	if err := c.settle(math.MaxUint64); err != nil {
		c.close()
		return Result{}, err
	}
	c.report(&res)
	return res, nil
}

// onSync, when set, is called once per host synchronization before a
// placement; the package's tests count synchronizations through it.
var onSync func()

// validate checks a run's inputs before any host is built.
func validate(arrivals []Arrival, cfg Config) error {
	if len(arrivals) == 0 {
		return fmt.Errorf("fleet: need at least one arrival")
	}
	if cfg.Hosts < 1 {
		return fmt.Errorf("fleet: need at least one host, got %d", cfg.Hosts)
	}
	if cfg.Platform.Hook != nil && cfg.Platform.HookFactory != nil {
		return fmt.Errorf("fleet: Platform takes Hook or HookFactory, not both")
	}
	if cfg.Platform.Hook != nil && cfg.Hosts > 1 {
		return fmt.Errorf("fleet: cannot share one hook across %d hosts (set HookFactory for per-host recording)", cfg.Hosts)
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i].At < arrivals[i-1].At {
			return fmt.Errorf("fleet: arrival %d at t=%d precedes arrival %d at t=%d; the front door is a time-ordered stream",
				i, arrivals[i].At, i-1, arrivals[i-1].At)
		}
	}
	return nil
}

// host is one EPC domain: its dynamic engine, the latency sampler teed
// in front of its recording hook, and the admissions placed on it but
// not yet applied.
type host struct {
	eng     *sim.Engine
	sampler *obs.FaultLatencySampler
	// queue holds the arrivals placed on this host and not yet
	// admitted, in stream order.
	queue []Arrival
	// at is the time the host last ran until: every event at or before
	// it has executed, and admissions at it may still follow. A fresh
	// engine has no events, so it starts at 0.
	at uint64
}

// settle applies the host's queued admissions in stream order — one
// RunUntil per distinct timestamp, then Admit — and runs the host until
// t. An arrival stays queued until its admission starts, so on failure
// the queue holds exactly the arrivals no engine owns.
func (h *host) settle(t uint64) error {
	for len(h.queue) > 0 {
		a := h.queue[0]
		if err := h.runUntil(a.At); err != nil {
			return err
		}
		h.queue = h.queue[1:]
		if err := h.eng.Admit(a.Enclave, a.At); err != nil {
			return err
		}
	}
	return h.runUntil(t)
}

// runUntil runs the host until t unless it is already there: running
// it again at a timestamp it has admitted at would execute a
// zero-compute first access before a later admission at that time.
func (h *host) runUntil(t uint64) error {
	if t <= h.at {
		return nil
	}
	h.at = t
	return h.eng.RunUntil(t)
}

// cluster is a run's hosts and the worker bound that advances them.
type cluster struct {
	hosts   []host
	workers int
	busy    []int // settle's scratch: the hosts with work to do
}

// newCluster builds the hosts: each its own dynamic engine with a
// latency sampler teed in front of the host's (optional) recording hook.
func newCluster(cfg Config) (*cluster, error) {
	c := &cluster{hosts: make([]host, cfg.Hosts), workers: cfg.Workers}
	for h := range c.hosts {
		pcfg := cfg.Platform
		if pcfg.HookFactory != nil {
			pcfg.Hook = cfg.Platform.HookFactory(h)
			pcfg.HookFactory = nil
		}
		s := obs.NewFaultLatencySampler()
		pcfg.Hook = obs.Tee(s, pcfg.Hook)
		eng, err := sim.NewDynamic(pcfg)
		if err != nil {
			for _, b := range c.hosts[:h] {
				b.eng.Close()
			}
			return nil, err
		}
		c.hosts[h] = host{eng: eng, sampler: s}
	}
	return c, nil
}

// settle brings every host to t on the worker pool. A host already at t
// with nothing queued is skipped, so after the first of a burst of
// signal-reading placements at one timestamp only the host the last
// placement fed is settled, inline. A failure names its host, and the
// lowest-index host's error wins at any worker count.
func (c *cluster) settle(t uint64) error {
	c.busy = c.busy[:0]
	for h := range c.hosts {
		if len(c.hosts[h].queue) > 0 || c.hosts[h].at < t {
			c.busy = append(c.busy, h)
		}
	}
	return pool.Run(c.workers, len(c.busy), func(i int) error {
		h := c.busy[i]
		if err := c.hosts[h].settle(t); err != nil {
			return fmt.Errorf("fleet: host %d: %w", h, err)
		}
		return nil
	})
}

// close abandons the run: every engine closes the streams it owns, and
// every queued arrival, which no engine owns, is closed too — also on
// hosts the pool never started after a failure.
func (c *cluster) close() {
	for _, h := range c.hosts {
		h.eng.Close()
		CloseArrivals(h.queue)
	}
}

// report assembles the per-host reports and the fleet-wide pooled
// percentiles into res.
func (c *cluster) report(res *Result) {
	pooled := obs.NewFaultLatencySampler()
	for _, h := range c.hosts {
		eng, s := h.eng, h.sampler
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
}

// placer carries the placement state one run accumulates: the
// round-robin cursor and, for Affinity, the last host each workload ran
// on. Placements happen in stream order, so both are deterministic
// functions of the arrival stream alone.
type placer struct {
	policy   Policy
	hosts    int
	admitted int            // round-robin cursor over admitted launches
	affinity map[string]int // workload key -> host of its last launch
}

func newPlacer(cfg Config) *placer {
	return &placer{policy: cfg.Policy, hosts: cfg.Hosts, affinity: make(map[string]int)}
}

// readsSignals reports whether placing the next admitted launch, named
// name, reads the hosts' live signals, so that every host must first be
// settled at its arrival time: LeastLoaded and PressureAware always do,
// Affinity only for a workload's first launch, RoundRobin never, and no
// policy on a one-host fleet.
func (p *placer) readsSignals(name string) bool {
	if p.hosts < 2 {
		return false
	}
	switch p.policy {
	case LeastLoaded, PressureAware:
		return true
	case Affinity:
		_, known := p.affinity[affinityKey(name)]
		return !known
	}
	return false
}

// place picks the host for the next admitted enclave.
func (p *placer) place(hosts []host, name string) int {
	p.admitted++
	switch p.policy {
	case LeastLoaded:
		return leastLoaded(hosts)
	case PressureAware:
		best := 0
		for h := 1; h < len(hosts); h++ {
			a, b := hosts[h].eng, hosts[best].eng
			if hr, br := a.EPCResident(), b.EPCResident(); hr < br || (hr == br && a.Running() < b.Running()) {
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
func leastLoaded(hosts []host) int {
	best := 0
	for h := 1; h < len(hosts); h++ {
		if hosts[h].eng.Running() < hosts[best].eng.Running() {
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
