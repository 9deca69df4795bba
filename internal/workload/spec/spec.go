// Package spec compiles declarative, ServeGen-style workload
// specifications into deterministic open-loop arrival streams.
//
// The paper evaluates preloading against closed-loop, single-tenant
// traces: one benchmark, started once, run to completion. A cluster
// serving real traffic sees something else entirely — overlapping
// cohorts of clients, each launching enclaves under its own arrival
// process, with rates that swing over a day. A Spec describes exactly
// that shape: client cohorts, each with an arrival process (Poisson,
// Gamma, or Weibull renewal via internal/rng, or a deterministic fixed
// period), a weighted mix over the registered workload generators, a
// footprint distribution over the generators' train/ref inputs, and a
// multi-period (diurnal) rate envelope. Cohort modifiers rotate each
// launch's page space by a random phase shift and slide its working set
// over time — the access-pattern perturbations that stress DFP's stream
// recognizer and its safety valve.
//
// Compile turns a Spec into []fleet.Arrival with one pull-based
// mem.Stream per launch, so the streaming engine and the fleet layer
// consume spec-generated traffic unchanged. The
// compilation is seeded and uses no wall clock: the same Spec and
// Options produce the identical arrival stream — timestamps, workload
// picks, modifiers, and every access of every stream — on every run and
// at any fleet worker count. Specs have a JSON file form (Load/Parse)
// consumed by `sgxsim -spec`; see WORKLOADS.md for the format reference
// and a worked example.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"sgxpreload/internal/workload"
)

// Process names an arrival process.
type Process string

// Arrival processes.
const (
	// Fixed launches exactly every MeanIntervalCycles — the
	// deterministic baseline (the CLI's -arrival-period as a process).
	Fixed Process = "fixed"
	// Poisson draws exponential inter-arrival times (CV 1): memoryless
	// open-loop clients.
	Poisson Process = "poisson"
	// Gamma draws Gamma-renewal inter-arrival times with coefficient of
	// variation CV: CV < 1 is smoother than Poisson, CV > 1 burstier.
	Gamma Process = "gamma"
	// Weibull draws Weibull-renewal inter-arrival times with the given
	// Shape: shape < 1 is heavy-tailed (bursts separated by long gaps),
	// shape > 1 increasingly regular, shape 1 is Poisson.
	Weibull Process = "weibull"
)

// ArrivalProcess is a cohort's inter-arrival law. Intervals have mean
// MeanIntervalCycles (before envelope scaling) regardless of process;
// the process picks the distribution around that mean.
type ArrivalProcess struct {
	// Process selects the distribution family.
	Process Process `json:"process"`
	// MeanIntervalCycles is the mean inter-arrival time in virtual
	// cycles at envelope scale 1. Must be positive.
	MeanIntervalCycles float64 `json:"mean_interval_cycles"`
	// CV is the Gamma process's coefficient of variation (defaults to 1,
	// which makes Gamma coincide with Poisson). Ignored by the others.
	CV float64 `json:"cv,omitempty"`
	// Shape is the Weibull process's shape parameter (defaults to 1).
	// Ignored by the others.
	Shape float64 `json:"shape,omitempty"`
}

// Period is one segment of a cohort's rate envelope.
type Period struct {
	// Cycles is the segment's length in virtual cycles. Must be positive.
	Cycles uint64 `json:"cycles"`
	// Scale multiplies the cohort's arrival rate while the segment is
	// active: 1 leaves it alone, 0.25 is a night valley, 0 silences the
	// cohort for the segment. Must be non-negative.
	Scale float64 `json:"scale"`
}

// MixEntry weights one registered workload inside a cohort's mix.
type MixEntry struct {
	// Workload is a registered generator name (see workload.Names).
	Workload string `json:"workload"`
	// Weight is the entry's relative launch probability. Must be
	// positive.
	Weight float64 `json:"weight"`
}

// Cohort is one client population: an arrival process, a workload mix,
// and the modifiers applied to every launch it produces.
type Cohort struct {
	// Name labels the cohort; launch names are "<cohort>.<workload>/<n>".
	Name string `json:"name"`
	// Arrival is the cohort's inter-arrival law.
	Arrival ArrivalProcess `json:"arrival"`
	// Envelope is the cohort's multi-period rate envelope, cycled for
	// the whole horizon (a diurnal day, repeated). Empty means a flat
	// rate. The envelope scale in force at an interval's start scales
	// that whole interval — the standard piecewise approximation.
	Envelope []Period `json:"envelope,omitempty"`
	// Mix is the weighted workload mix; each launch draws one entry.
	Mix []MixEntry `json:"mix"`
	// TrainShare is the probability a launch uses the workload's train
	// input instead of ref — the footprint distribution knob (train
	// inputs have roughly half the footprint). In [0, 1]; default 0.
	TrainShare float64 `json:"train_share,omitempty"`
	// PhaseShiftPages, when positive, rotates each launch's pages by a
	// per-launch uniform offset in [0, PhaseShiftPages], modulo the
	// workload footprint. Repeat launches of one workload then fault
	// over disjoint phases, so a host's warm pages and DFP stream
	// history from the previous launch stop lining up.
	PhaseShiftPages uint64 `json:"phase_shift_pages,omitempty"`
	// DriftPeriodAccesses, when positive, slides the launch's working
	// set one page further into its footprint every DriftPeriodAccesses
	// accesses. The drift cuts every recognized stream short and keeps
	// baiting the recognizer with near-miss continuations — the
	// sustained-inaccuracy regime the DFP safety valve exists for.
	DriftPeriodAccesses uint64 `json:"drift_period_accesses,omitempty"`
	// Scheme, when set, overrides the compile Options' scheme for this
	// cohort's launches (baseline | dfp | dfp-stop | sip | hybrid).
	Scheme string `json:"scheme,omitempty"`
}

// Spec is a complete arrival-process workload specification.
type Spec struct {
	// Name labels the spec in reports.
	Name string `json:"name"`
	// Seed seeds every sampler the compilation uses. Two compilations
	// of one Spec with one seed are identical.
	Seed uint64 `json:"seed"`
	// HorizonCycles bounds arrival generation: launches strictly before
	// the horizon enter the stream. Must be positive.
	HorizonCycles uint64 `json:"horizon_cycles"`
	// Cohorts are the client populations; at least one.
	Cohorts []Cohort `json:"cohorts"`
}

// Parse decodes and validates a JSON spec. Unknown fields are errors, so
// a typoed knob fails loudly instead of silently meaning "default".
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a JSON spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Validate checks the spec against the registered workloads and the
// samplers' parameter domains.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec: name must be set")
	}
	if s.HorizonCycles == 0 {
		return fmt.Errorf("spec %s: horizon_cycles must be positive", s.Name)
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("spec %s: need at least one cohort", s.Name)
	}
	seen := map[string]bool{}
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		where := fmt.Sprintf("spec %s cohort %d (%q)", s.Name, i, c.Name)
		if c.Name == "" {
			return fmt.Errorf("spec %s cohort %d: name must be set", s.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("%s: duplicate cohort name", where)
		}
		seen[c.Name] = true
		if err := c.validate(where); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cohort) validate(where string) error {
	switch c.Arrival.Process {
	case Fixed, Poisson:
	case Gamma:
		if c.Arrival.CV < 0 || isNaN(c.Arrival.CV) {
			return fmt.Errorf("%s: gamma cv must be >= 0 (0 means the default, 1), got %g", where, c.Arrival.CV)
		}
	case Weibull:
		if c.Arrival.Shape < 0 || isNaN(c.Arrival.Shape) {
			return fmt.Errorf("%s: weibull shape must be >= 0 (0 means the default, 1), got %g", where, c.Arrival.Shape)
		}
	default:
		return fmt.Errorf("%s: unknown arrival process %q (want fixed, poisson, gamma, or weibull)",
			where, c.Arrival.Process)
	}
	if !(c.Arrival.MeanIntervalCycles > 0) {
		return fmt.Errorf("%s: mean_interval_cycles must be positive, got %g",
			where, c.Arrival.MeanIntervalCycles)
	}
	for j, p := range c.Envelope {
		if p.Cycles == 0 {
			return fmt.Errorf("%s envelope period %d: cycles must be positive", where, j)
		}
		if p.Scale < 0 || isNaN(p.Scale) {
			return fmt.Errorf("%s envelope period %d: scale must be >= 0, got %g", where, j, p.Scale)
		}
	}
	if len(c.Mix) == 0 {
		return fmt.Errorf("%s: mix must name at least one workload", where)
	}
	for j, m := range c.Mix {
		if _, err := workload.ByName(m.Workload); err != nil {
			return fmt.Errorf("%s mix entry %d: %w", where, j, err)
		}
		if !(m.Weight > 0) {
			return fmt.Errorf("%s mix entry %d (%s): weight must be positive, got %g",
				where, j, m.Workload, m.Weight)
		}
	}
	if c.TrainShare < 0 || c.TrainShare > 1 || isNaN(c.TrainShare) {
		return fmt.Errorf("%s: train_share must be in [0, 1], got %g", where, c.TrainShare)
	}
	return nil
}

// isNaN avoids importing math for one predicate.
func isNaN(f float64) bool { return f != f }
