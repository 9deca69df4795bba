package spec

import (
	"fmt"
	"math"
	"sort"

	"sgxpreload/internal/core"
	"sgxpreload/internal/dfp"
	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/stats"
	"sgxpreload/internal/workload"
)

// Options carries the platform-side knobs a spec file deliberately does
// not own: the preloading configuration is the experimenter's variable,
// the traffic shape is the spec's.
type Options struct {
	// Scheme is the preloading scheme for cohorts without their own
	// "scheme" field. Zero value is Baseline.
	Scheme sim.Scheme
	// DFP tunables for every launch (zero value = paper defaults).
	DFP dfp.Config
	// Predictor selects the fault-history strategy (zero value = the
	// paper's multiple-stream recognizer).
	Predictor core.Kind
	// BackgroundReclaim enables each launch's background reclaimer.
	BackgroundReclaim bool
	// RateScale multiplies every cohort's arrival rate — the saturation
	// sweep's knob. Zero means 1 (the spec's own rates).
	RateScale float64
	// Selection supplies a workload's SIP instrumentation sites; must be
	// set when any cohort resolves to a SIP-using scheme. It is called
	// once per (launch, workload) in stream order, so a memoizing
	// implementation (experiments.Runner.Selection) is the natural fit.
	Selection func(w *workload.Workload) (*sip.Selection, error)
	// MaxLaunches bounds the compiled stream as a runaway guard — a
	// mis-scaled spec (say a one-cycle mean interval over a 10^9-cycle
	// horizon) fails with an error instead of consuming all memory.
	// Zero means 100000.
	MaxLaunches int
}

// Launch is one compiled enclave launch — the deterministic record
// behind an arrival's Enclave. The Manifest of Launches, not the live
// streams, is what golden tests and the spec-smoke gate compare.
type Launch struct {
	// At is the launch's virtual-cycle timestamp.
	At uint64
	// Cohort and Workload name the launch's origin.
	Cohort   string
	Workload string
	// Name is the enclave name: "<cohort>.<workload>/<seq>" with seq the
	// cohort-wide launch index, so fleet affinity keys launches of one
	// workload from one cohort together.
	Name string
	// Input is the generator input the launch runs (the footprint draw).
	Input workload.Input
	// PhaseShift is the launch's page-rotation offset in pages.
	PhaseShift uint64
	// DriftPeriod is the launch's working-set drift period in accesses
	// per page of slide (0 = no drift).
	DriftPeriod uint64
	// Scheme is the launch's resolved preloading scheme.
	Scheme sim.Scheme
}

// Manifest is the compiled stream's deterministic description: what
// launches when, with which modifiers, before any simulation runs.
type Manifest struct {
	// Spec and Horizon echo the compiled spec.
	Spec    string
	Horizon uint64
	// Launches holds every launch in arrival order.
	Launches []Launch
}

// String renders the manifest as a fixed-width table — the byte-stable
// form golden fixtures pin.
func (m *Manifest) String() string {
	t := &stats.Table{Header: []string{"at", "cohort", "name", "input", "shift", "drift", "scheme"}}
	for _, l := range m.Launches {
		t.Add(l.At, l.Cohort, l.Name, l.Input.String(), l.PhaseShift, l.DriftPeriod, l.Scheme.String())
	}
	return fmt.Sprintf("Spec %s: %d launches before cycle %d\n", m.Spec, len(m.Launches), m.Horizon) +
		t.String()
}

// Compile turns the spec into a fleet arrival stream: one time-ordered
// fleet.Arrival per launch, each carrying a fresh pull-based mem.Stream
// over the launch's (possibly phase-shifted, drifting) workload
// generator. Compilation is pure and seeded — no wall clock, no global
// state — so the same (Spec, Options) pair yields the identical stream
// every time; the returned Manifest is the comparable record of it.
//
// The caller owns the streams exactly as it owns hand-built arrivals:
// passing them to fleet.Run transfers ownership (the fleet closes them
// on every path); a caller that abandons the slice without running it
// should close them via CloseArrivals.
func Compile(s *Spec, opt Options) ([]fleet.Arrival, *Manifest, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	rateScale := opt.RateScale
	if rateScale == 0 {
		rateScale = 1
	}
	if !(rateScale > 0) || isNaN(rateScale) {
		return nil, nil, fmt.Errorf("spec %s: rate scale must be positive, got %g", s.Name, opt.RateScale)
	}
	maxLaunches := opt.MaxLaunches
	if maxLaunches == 0 {
		maxLaunches = 100_000
	}

	var launches []Launch
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		scheme := opt.Scheme
		if c.Scheme != "" {
			var err error
			if scheme, err = sim.SchemeByName(c.Scheme); err != nil {
				return nil, nil, fmt.Errorf("spec %s cohort %q: %w", s.Name, c.Name, err)
			}
		}
		// Two independent, deterministically derived sources per cohort:
		// one clocks the arrival process, one draws the per-launch
		// parameters — so adding a mix entry cannot shift arrival times.
		base := rng.New(s.Seed ^ cohortSeed(c.Name, i))
		rTimes, rPicks := base.Fork(), base.Fork()
		times, err := arrivalTimes(c, rTimes, s.HorizonCycles, rateScale, maxLaunches-len(launches))
		if err != nil {
			return nil, nil, fmt.Errorf("spec %s cohort %q: %w", s.Name, c.Name, err)
		}
		var totalWeight float64
		for _, m := range c.Mix {
			totalWeight += m.Weight
		}
		for seq, at := range times {
			m := pickMix(c.Mix, totalWeight, rPicks)
			in := workload.Ref
			if rPicks.Chance(c.TrainShare) {
				in = workload.Train
			}
			var shift uint64
			if c.PhaseShiftPages > 0 {
				shift = rPicks.Uint64n(c.PhaseShiftPages + 1)
			}
			launches = append(launches, Launch{
				At:          at,
				Cohort:      c.Name,
				Workload:    m.Workload,
				Name:        fmt.Sprintf("%s.%s/%d", c.Name, m.Workload, seq),
				Input:       in,
				PhaseShift:  shift,
				DriftPeriod: c.DriftPeriodAccesses,
				Scheme:      scheme,
			})
		}
	}
	if len(launches) == 0 {
		return nil, nil, fmt.Errorf("spec %s: no cohort produced a launch before the %d-cycle horizon (rates too low?)",
			s.Name, s.HorizonCycles)
	}
	// Merge the cohort streams into one time-ordered front-door stream.
	// The sort is stable and launches were appended in (cohort, seq)
	// order, so simultaneous launches tie-break by cohort declaration
	// order — fully deterministic.
	sort.SliceStable(launches, func(a, b int) bool { return launches[a].At < launches[b].At })

	arrivals := make([]fleet.Arrival, len(launches))
	selections := map[string]*sip.Selection{}
	for i, l := range launches {
		w, err := workload.ByName(l.Workload)
		if err != nil {
			return nil, nil, err // unreachable: Validate checked the mix
		}
		enc := sim.Enclave{
			Name:              l.Name,
			Pages:             w.ELRangePages(),
			Scheme:            l.Scheme,
			DFP:               opt.DFP,
			Predictor:         opt.Predictor,
			BackgroundReclaim: opt.BackgroundReclaim,
			Stream:            modify(w.Stream(l.Input), w.FootprintPages, l.PhaseShift, l.DriftPeriod),
		}
		if l.Scheme.UsesSIP() {
			sel, ok := selections[l.Workload]
			if !ok {
				bail := func(err error) ([]fleet.Arrival, *Manifest, error) {
					fleet.CloseArrivals(arrivals[:i])
					mem.Close(enc.Stream)
					return nil, nil, err
				}
				if opt.Selection == nil {
					return bail(fmt.Errorf("spec %s: cohort %q resolves to %s but Options.Selection is nil",
						s.Name, l.Cohort, l.Scheme))
				}
				if sel, err = opt.Selection(w); err != nil {
					return bail(fmt.Errorf("spec %s: %s: %w", s.Name, l.Workload, err))
				}
				selections[l.Workload] = sel
			}
			enc.Selection = sel
		}
		arrivals[i] = fleet.Arrival{At: l.At, Enclave: enc}
	}
	return arrivals, &Manifest{Spec: s.Name, Horizon: s.HorizonCycles, Launches: launches}, nil
}

// cohortSeed derives a per-cohort seed offset from the cohort's name and
// index (FNV-1a, the workload package's seeding idiom).
func cohortSeed(name string, index int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ (uint64(index+1) * 0x9e3779b97f4a7c15)
}

// arrivalTimes generates the cohort's launch timestamps up to (but not
// including) the horizon. The renewal clock runs in float64 cycles: each
// step draws a mean-1 interval from the process, scales it by the mean
// interval, and divides by the rate scale and the envelope scale in
// force at the interval's start (a zero envelope scale silences the
// cohort until the segment ends).
func arrivalTimes(c *Cohort, r *rng.Source, horizon uint64, rateScale float64, budget int) ([]uint64, error) {
	sample := sampler(&c.Arrival, r)
	env := newEnvelope(c.Envelope)
	var out []uint64
	t := 0.0
	for {
		ti := uint64(t)
		if ti >= horizon {
			return out, nil
		}
		scale, segEnd := env.at(ti)
		if scale == 0 {
			t = float64(segEnd)
			continue
		}
		t += sample() * c.Arrival.MeanIntervalCycles / (rateScale * scale)
		if isNaN(t) || t > math.MaxUint64/2 {
			// A pathological draw (infinite interval) ends the cohort.
			return out, nil
		}
		ti = uint64(t)
		if ti >= horizon {
			return out, nil
		}
		if len(out) >= budget {
			return nil, fmt.Errorf("more than %d launches before the horizon; shrink the horizon or the rates", budget)
		}
		out = append(out, ti)
	}
}

// sampler returns the process's mean-1 interval draw.
func sampler(a *ArrivalProcess, r *rng.Source) func() float64 {
	switch a.Process {
	case Poisson:
		return r.Exp
	case Gamma:
		cv := a.CV
		if cv == 0 {
			cv = 1
		}
		shape := 1 / (cv * cv)
		return func() float64 { return r.Gamma(shape) / shape }
	case Weibull:
		shape := a.Shape
		if shape == 0 {
			shape = 1
		}
		norm := math.Gamma(1 + 1/shape)
		return func() float64 { return r.Weibull(shape) / norm }
	default: // Fixed
		return func() float64 { return 1 }
	}
}

// envelope evaluates a cyclic rate envelope in O(#periods).
type envelope struct {
	periods []Period
	total   uint64
}

func newEnvelope(ps []Period) *envelope {
	e := &envelope{periods: ps}
	for _, p := range ps {
		e.total += p.Cycles
	}
	return e
}

// at returns the rate scale in force at cycle t and the absolute cycle
// at which the containing segment ends (the resume point when the scale
// is zero).
func (e *envelope) at(t uint64) (scale float64, segEnd uint64) {
	if e.total == 0 {
		return 1, math.MaxUint64
	}
	pos := t % e.total
	cycleStart := t - pos
	var acc uint64
	for _, p := range e.periods {
		acc += p.Cycles
		if pos < acc {
			return p.Scale, cycleStart + acc
		}
	}
	// Unreachable: pos < total == acc after the loop.
	return 1, cycleStart + e.total
}

// pickMix draws one weighted mix entry.
func pickMix(mix []MixEntry, total float64, r *rng.Source) MixEntry {
	u := r.Float64() * total
	for _, m := range mix {
		u -= m.Weight
		if u < 0 {
			return m
		}
	}
	return mix[len(mix)-1] // float-rounding tail
}

// modify wraps a workload stream with the cohort modifiers: a static
// phase rotation and a working-set drift, both modulo the workload's
// footprint so every page stays inside the enclave's ELRANGE. With both
// zero the stream is returned unwrapped.
func modify(src mem.Stream, footprint, shift, driftPeriod uint64) mem.Stream {
	if shift == 0 && driftPeriod == 0 {
		return src
	}
	return &modStream{src: src, footprint: footprint, shift: shift, driftPeriod: driftPeriod}
}

// modStream applies the page-space modifiers access by access; it is a
// mem.Stream and forwards Close to the generator coroutine beneath it.
type modStream struct {
	src         mem.Stream
	footprint   uint64
	shift       uint64
	driftPeriod uint64
	count       uint64
}

func (m *modStream) Next() (mem.Access, bool) {
	a, ok := m.src.Next()
	if !ok {
		return a, false
	}
	off := m.shift
	if m.driftPeriod > 0 {
		off += m.count / m.driftPeriod
	}
	m.count++
	a.Page = mem.PageID((uint64(a.Page) + off) % m.footprint)
	return a, true
}

// Close releases the underlying generator.
func (m *modStream) Close() { mem.Close(m.src) }
