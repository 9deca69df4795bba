package experiments

import (
	"fmt"
	"math"

	"sgxpreload/internal/fleet"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/stats"
	"sgxpreload/internal/workload/spec"
)

// The saturation study: one arrival-process spec swept across rate
// multipliers until the cluster stops keeping up. The spec mixes a
// steady Poisson cohort with a bursty diurnal Gamma cohort (CV 2, a
// peak/valley envelope, phase-shifted drifting launches), and every
// sweep cell recompiles it with Options.RateScale raised — same seed,
// same cohorts, proportionally more launches. Two signals locate the
// knee: the front door's token bucket starts shedding launches, and the
// fleet-wide fault-service p99 — the faults queued behind overloaded
// hosts' load channels — breaks away from its low-rate plateau. Below
// the knee the fleet absorbs rate increases with a flat tail; at the
// knee both curves bend together, which is the capacity number an
// operator would read off this table.

// saturationSpec is the swept workload: everything here is cohort
// shape, deliberately none of it platform configuration.
var saturationSpec = &spec.Spec{
	Name:          "saturation",
	Seed:          7,
	HorizonCycles: 6_000_000,
	Cohorts: []spec.Cohort{
		{
			Name:    "steady",
			Arrival: spec.ArrivalProcess{Process: spec.Poisson, MeanIntervalCycles: 750_000},
			Mix: []spec.MixEntry{
				{Workload: "leela", Weight: 2},
				{Workload: "exchange2", Weight: 2},
				{Workload: "nab", Weight: 1},
			},
			TrainShare: 0.5,
		},
		{
			Name:    "bursty",
			Arrival: spec.ArrivalProcess{Process: spec.Gamma, MeanIntervalCycles: 1_000_000, CV: 2},
			Envelope: []spec.Period{
				{Cycles: 2_000_000, Scale: 1.5},
				{Cycles: 2_000_000, Scale: 0.5},
			},
			Mix: []spec.MixEntry{
				{Workload: "exchange2", Weight: 1},
				{Workload: "imagick", Weight: 1},
			},
			TrainShare:          0.5,
			PhaseShiftPages:     128,
			DriftPeriodAccesses: 4000,
		},
	},
}

// saturationScales are the swept rate multipliers.
var saturationScales = []float64{0.5, 1, 2, 4, 8}

const (
	saturationHosts = 2
	// saturationAdmitPeriod sets the front door's sustained admission
	// rate to one launch per 150k cycles — comfortably above the spec's
	// x1 offered rate (one launch per ~430k cycles), crossed between x2
	// and x4.
	saturationAdmitPeriod = 150_000
	saturationAdmitBurst  = 2
)

// SaturationPoint is one sweep cell: the spec at one rate multiplier.
type SaturationPoint struct {
	// Scale is the rate multiplier applied to every cohort.
	Scale float64
	// Launches is the compiled launch count (the offered load).
	Launches int
	// Shed is how many launches the admission token bucket refused.
	Shed int
	// FaultP50/P95/P99 are the fleet-wide fault-service latency
	// percentiles in cycles.
	FaultP50, FaultP95, FaultP99 float64
	// RunP99 is the 99th-percentile enclave completion time in cycles
	// across the admitted launches — the tenant-visible latency.
	RunP99 float64
}

// SaturationResult is the full rate sweep.
type SaturationResult struct {
	Spec   string
	Hosts  int
	Points []SaturationPoint
}

// Saturation compiles the spec once per rate multiplier and runs each
// compiled stream through the same admission-controlled fleet, one
// fleet cell per multiplier on the runner's worker pool.
func Saturation(r *Runner) (SaturationResult, error) {
	return saturation(r, saturationScales, func(scale float64) ([]fleet.Arrival, error) {
		arrivals, _, err := spec.Compile(saturationSpec, spec.Options{
			Scheme:    sim.DFPStop,
			DFP:       r.p.DFP,
			RateScale: scale,
			Selection: r.Selection,
		})
		return arrivals, err
	})
}

// saturation runs the sweep over scales. It compiles every scale's
// arrivals before any runs, and closes them if a later one fails.
func saturation(r *Runner, scales []float64, compile func(scale float64) ([]fleet.Arrival, error)) (SaturationResult, error) {
	out := SaturationResult{Spec: saturationSpec.Name, Hosts: saturationHosts}
	cells := make([]*fleetCell, 0, len(scales))
	for _, scale := range scales {
		arrivals, err := compile(scale)
		if err != nil {
			for _, c := range cells {
				fleet.CloseArrivals(c.arrivals)
			}
			return out, fmt.Errorf("saturation x%g: %w", scale, err)
		}
		cells = append(cells, &fleetCell{label: fmt.Sprintf("x%g", scale), arrivals: arrivals, cfg: fleet.Config{
			Hosts:       saturationHosts,
			Policy:      fleet.LeastLoaded,
			Platform:    sim.SharedConfig{EPCPages: r.p.EPCPages},
			AdmitPeriod: saturationAdmitPeriod,
			AdmitBurst:  saturationAdmitBurst,
		}})
	}
	results, err := r.fleets("saturation", cells)
	if err != nil {
		return out, err
	}
	for i, res := range results {
		var runtimes []float64
		for _, hr := range res.Hosts {
			for _, er := range hr.Enclaves {
				runtimes = append(runtimes, float64(er.Cycles))
			}
		}
		out.Points = append(out.Points, SaturationPoint{
			Scale:    scales[i],
			Launches: len(res.Placement),
			Shed:     len(res.Shed),
			FaultP50: res.FaultP50,
			FaultP95: res.FaultP95,
			FaultP99: res.FaultP99,
			RunP99:   stats.Percentile(runtimes, 99),
		})
	}
	return out, nil
}

// Knee returns the index of the first sweep point past the knee — the
// first rate where the front door sheds launches or the fault p99
// breaks to more than twice the lowest-rate plateau — or -1 if the
// sweep never saturates.
func (a SaturationResult) Knee() int {
	if len(a.Points) == 0 {
		return -1
	}
	base := a.Points[0].FaultP99
	for i, p := range a.Points {
		if p.Shed > 0 {
			return i
		}
		if !math.IsNaN(p.FaultP99) && !math.IsNaN(base) && base > 0 && p.FaultP99 > 2*base {
			return i
		}
	}
	return -1
}

// String renders the p99-versus-rate knee table.
func (a SaturationResult) String() string {
	knee := a.Knee()
	t := &stats.Table{Header: []string{
		"rate", "launches", "shed", "fault-p50", "fault-p95", "fault-p99", "run-p99", "",
	}}
	for i, p := range a.Points {
		mark := ""
		if i == knee {
			mark = "<- knee"
		}
		t.Add(fmt.Sprintf("x%g", p.Scale), p.Launches, p.Shed,
			fleetCyc(p.FaultP50), fleetCyc(p.FaultP95), fleetCyc(p.FaultP99),
			fleetCyc(p.RunP99), mark)
	}
	head := fmt.Sprintf("Saturation sweep: spec %q over %d hosts, admission 1 launch per %d cycles (burst %d)\n",
		a.Spec, a.Hosts, saturationAdmitPeriod, saturationAdmitBurst)
	tail := "no knee within the swept rates\n"
	if knee >= 0 {
		tail = fmt.Sprintf("knee at x%g: shed %d launches, fault p99 %s cycles\n",
			a.Points[knee].Scale, a.Points[knee].Shed, fleetCyc(a.Points[knee].FaultP99))
	}
	return head + t.String() + tail
}
