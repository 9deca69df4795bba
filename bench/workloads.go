package main

import (
	_ "embed"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/replay"
	"sgxpreload/internal/rng"
	"sgxpreload/internal/sim"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
	"sgxpreload/internal/workload/spec"
)

// workloadDef is one benchmark workload. Its why is the line
// BENCHMARK.json gives for it. roundS is the nominal time one untraced
// round takes in the parent on the reference machine, child start and
// reference sample included: it turns -seconds into a round count.
type workloadDef struct {
	name   string
	why    string
	roundS float64
	run    func(rc *roundCtx)
}

var workloads = []workloadDef{
	{"solo-hits", "five small-working-set generators streamed solo under DFP-stop: ~99% hits, so the generator pull and the hit path do the work", 0.5, runSoloHits},
	{"solo-faults", "six fault-heavy materialized traces run solo and repeated: the fault, preload, eviction, channel and SIP notify paths do the work", 0.4, runSoloFaults},
	{"shared-quota", "16 streamed enclaves on one EPC under the adaptive quota policy: the only workload where the arbiter and owned victim scans run", 3, runSharedQuota},
	{"fleet-traced", "a two-cohort spec on a 2-host fleet, traced per host and replayed into reports: the spec, fleet, hook, sink and replay paths", 0.5, runFleetTraced},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want solo-hits, solo-faults, shared-quota or fleet-traced)", name)
}

// size fixes how much work one round does: the same for every round and
// seed, so rounds are repeats and seeds are comparable. The benchmark
// measures the full size; tests run the reduced one.
type size struct {
	passes      int    // solo-hits: back-to-back passes over each generator
	reps        int    // solo-faults: sim runs per cell
	sharedLimit uint64 // shared-quota: access cap per enclave (0 = whole trace)
	fleetLimit  uint64 // fleet-traced: access cap per launch (0 = whole trace)
}

var sizes = map[string]size{
	"full": {passes: 6, reps: 4},
	"test": {passes: 1, reps: 2, sharedLimit: 1500, fleetLimit: 3000},
}

// Platform constants of the workloads.
const (
	soloEPC    = 2048 // the paper's EPC, as in every solo experiment
	sharedEPC  = 4096 // 256 frames per shared-quota enclave
	fleetEPC   = 4096 // per host
	fleetHosts = 2
	// fleetWorkers is the goroutines advancing fleet hosts: one per
	// host, which is also one per CPU of the 2-vCPU reference machine.
	fleetWorkers = 2
)

// roundCtx carries one round of one workload: its inputs, its spans, and
// what the round's checks and counters need afterwards.
type roundCtx struct {
	workload string
	seed     uint64
	size     size
	traced   bool
	workdir  string
	log      *spanLog

	cells     []cell
	results   []sim.Result // every enclave result of the round
	resident  int          // final EPC occupancy, summed over the round's EPC domains
	sipPoints int
	probes    []*cellProbes
	fleet     *fleetRun   // fleet-traced only
	rot       *rng.Source // draws the page rotations (see rotate)
}

// fleetRun is what fleet-traced leaves for the per-layer counters.
type fleetRun struct {
	res          fleet.Result
	launches     int
	barriers     int
	traceBytes   int64
	replayEvents int
	sinkEvents   int
}

// cell is one checked unit of simulation and its FNV-64 digest. A cell
// may run several times in a round; every run must reproduce the digest.
type cell struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Runs   int    `json:"runs"`
	Failed int    `json:"failed"`
	Err    string `json:"err,omitempty"`
}

// check runs a cell runs times. An error, a recovered panic, or a digest
// that differs from the cell's first run fails that run.
func (rc *roundCtx) check(name string, runs int, fn func() (string, error)) {
	c := cell{Name: name}
	for i := 0; i < runs; i++ {
		d, err := func() (d string, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return fn()
		}()
		c.Runs++
		switch {
		case err != nil:
			c.Failed++
			if c.Err == "" {
				c.Err = err.Error()
			}
		case c.Digest == "":
			c.Digest = d
		case d != c.Digest:
			c.Failed++
			c.Err = fmt.Sprintf("run %d digest %s differs from run 1's %s", i+1, d, c.Digest)
		}
	}
	rc.cells = append(rc.cells, c)
}

// cellProbes holds one cell's per-access probes. A nil *cellProbes (an
// untraced round) passes everything through unwrapped.
type cellProbes struct {
	step    *stepper // nil when the engines run inside fleet.Run
	streams []*tracedStream
	hooks   []*tracedHook
}

// newProbes returns the probes of a cell, or nil in an untraced round.
// stepped is whether the benchmark drives the cell's engines itself.
func (rc *roundCtx) newProbes(stepped bool) *cellProbes {
	if !rc.traced {
		return nil
	}
	cp := &cellProbes{}
	if stepped {
		cp.step = newStepper()
	}
	rc.probes = append(rc.probes, cp)
	return cp
}

func (cp *cellProbes) busy() *bool {
	if cp.step == nil {
		return nil
	}
	return &cp.step.busy
}

func (cp *cellProbes) stream(src mem.Stream) mem.Stream {
	if cp == nil {
		return src
	}
	s := &tracedStream{src: src, p: newProbe(cp.busy())}
	cp.streams = append(cp.streams, s)
	return s
}

func (cp *cellProbes) hook(next obs.Hook) obs.Hook {
	if cp == nil {
		return next
	}
	h := newTracedHook(next, cp.busy())
	cp.hooks = append(cp.hooks, h)
	return h
}

// drain runs eng to completion: Drain when untraced, Step by Step when
// traced.
func (cp *cellProbes) drain(eng *sim.Engine) error {
	if cp == nil || cp.step == nil {
		return eng.Drain()
	}
	return cp.step.drain(eng)
}

// ops folds the cells' probes by boundary.
func ops(cps ...*cellProbes) (pull, step, emit opStat) {
	var pulls, steps, emits []*probe
	for _, cp := range cps {
		for _, s := range cp.streams {
			pulls = append(pulls, &s.p)
		}
		for _, h := range cp.hooks {
			emits = append(emits, &h.p)
		}
		if cp.step != nil {
			steps = append(steps, &cp.step.p)
		}
	}
	return fold(pulls...), fold(steps...), fold(emits...)
}

// simCell runs fn inside the cell's span and attaches the cell's folded
// probes to the span.
func (rc *roundCtx) simCell(cp *cellProbes, name string, fn func() error) error {
	i := rc.log.begin("cell " + name)
	defer func() {
		rc.log.end()
		if cp != nil {
			pull, step, emit := ops(cp)
			rc.log.spans[i].Ops = map[string]opStat{"workload.pull": pull, "sim.step": step, "obs.emit": emit}
		}
	}()
	return fn()
}

func (rc *roundCtx) newEngine(encs []sim.Enclave, cfg sim.SharedConfig) (*sim.Engine, error) {
	var eng *sim.Engine
	err := rc.log.do("sim.New", func() (err error) {
		eng, err = sim.New(encs, cfg)
		return err
	})
	return eng, err
}

// collect records a drained engine's results for the kernel counters.
func (rc *roundCtx) collect(eng *sim.Engine) {
	for _, r := range eng.Results() {
		rc.results = append(rc.results, r.Result)
	}
	rc.resident += eng.EPCResident()
}

// generate materializes a workload input inside a span.
func (rc *roundCtx) generate(w *workload.Workload, in workload.Input) []mem.Access {
	var trace []mem.Access
	rc.log.do("workload.Generate", func() error {
		trace = w.Generate(in)
		return nil
	})
	return trace
}

// profile builds a workload's SIP selection the way the CLI does: classify
// its train trace against an EPC of epcPages frames, then select at the
// paper's 5% threshold.
func (rc *roundCtx) profile(w *workload.Workload, epcPages int) (*sip.Selection, error) {
	train := rc.generate(w, workload.Train)
	var sel *sip.Selection
	err := rc.log.do("sip.profile", func() error {
		cl, err := sip.NewClassifier(epcPages, w.ELRangePages(), dfp.DefaultConfig())
		if err != nil {
			return err
		}
		for _, a := range train {
			cl.Record(a.Site, a.Page)
		}
		sel = sip.Select(cl.Profile(), 0.05, 32)
		return nil
	})
	rc.sipPoints += sel.Points()
	return sel, err
}

func mustWorkload(name string) *workload.Workload {
	w, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return w
}

// soloRun is one solo engine built in set-up and drained in simulation.
type soloRun struct {
	name string
	eng  *sim.Engine
	cp   *cellProbes
	err  error
}

var soloHitNames = []string{"leela", "nab", "exchange2", "cactuBSSN", "imagick"}

func runSoloHits(rc *roundCtx) {
	var runs []soloRun
	rc.log.do("setup", func() error {
		for _, name := range soloHitNames {
			w := mustWorkload(name)
			cp := rc.newProbes(true)
			src := cp.stream(&repeatStream{w: w, left: rc.size.passes, cur: w.Stream(workload.Ref)})
			eng, err := rc.newEngine(
				[]sim.Enclave{{Name: name, Stream: src, Pages: w.ELRangePages(), Scheme: sim.DFPStop}},
				sim.SharedConfig{EPCPages: soloEPC, Hook: cp.hook(nil)})
			runs = append(runs, soloRun{name, eng, cp, err})
		}
		return nil
	})
	rc.log.do("simulate", func() error {
		for _, r := range runs {
			rc.check(r.name, 1, func() (string, error) {
				if r.err != nil {
					return "", r.err
				}
				if err := rc.simCell(r.cp, r.name, func() error { return r.cp.drain(r.eng) }); err != nil {
					return "", err
				}
				rc.collect(r.eng)
				return digest(r.eng.Result(0).Result), nil
			})
		}
		return nil
	})
}

// repeatStream replays a workload's Ref trace n times back to back (the
// CLI's -stream -repeat n), regenerating the coroutine at each boundary.
// Close releases the live coroutine.
type repeatStream struct {
	w    *workload.Workload
	left int
	cur  mem.Stream
}

func (r *repeatStream) Next() (mem.Access, bool) {
	for {
		if a, ok := r.cur.Next(); ok {
			return a, true
		}
		if r.left <= 1 {
			return mem.Access{}, false
		}
		r.left--
		r.cur = r.w.Stream(workload.Ref)
	}
}

func (r *repeatStream) Close() {
	r.left = 0
	r.cur.(mem.Closer).Close()
}

var faultCells = []struct {
	name   string
	scheme sim.Scheme
}{
	{"lbm", sim.DFP},
	{"microbenchmark", sim.DFP},
	{"SIFT", sim.DFP},
	{"roms", sim.DFPStop},
	{"omnetpp", sim.Baseline},
	{"mixed-blood", sim.Hybrid},
}

func runSoloFaults(rc *roundCtx) {
	type faultRun struct {
		soloRun
		enc sim.Enclave
	}
	var runs []faultRun
	rc.log.do("setup", func() error {
		for _, c := range faultCells {
			w := mustWorkload(c.name)
			name := c.name + "/" + c.scheme.String()
			r := faultRun{soloRun: soloRun{name: name, cp: rc.newProbes(true)}}
			r.enc = sim.Enclave{Name: c.name, Trace: rc.generate(w, workload.Ref), Pages: w.ELRangePages(), Scheme: c.scheme}
			if c.scheme.UsesSIP() {
				r.enc.Selection, r.err = rc.profile(w, soloEPC)
			}
			if r.err == nil {
				r.eng, r.err = rc.newEngine([]sim.Enclave{r.enc}, sim.SharedConfig{EPCPages: soloEPC, Hook: r.cp.hook(nil)})
			}
			runs = append(runs, r)
		}
		return nil
	})
	rc.log.do("simulate", func() error {
		for _, r := range runs {
			rep := 0
			rc.simCell(r.cp, r.name, func() error {
				rc.check(r.name, rc.size.reps, func() (string, error) {
					if r.err != nil {
						return "", r.err
					}
					// The first run's engine was built in set-up; each
					// repeat builds a fresh one over the same trace.
					if rep++; rep > 1 {
						if r.eng, r.err = rc.newEngine([]sim.Enclave{r.enc}, sim.SharedConfig{EPCPages: soloEPC, Hook: r.cp.hook(nil)}); r.err != nil {
							return "", r.err
						}
					}
					if err := r.cp.drain(r.eng); err != nil {
						return "", err
					}
					rc.collect(r.eng)
					return digest(r.eng.Result(0).Result), nil
				})
				return nil
			})
		}
		return nil
	})
}

// sharedCohort is shared-quota's 16 enclaves: an lbm and an omnetpp hog,
// and 14 small-working-set enclaves, each of seven generators twice. It
// is half of the 32-enclave cohort, with the same mix and EPC frames per
// enclave, because a full-trace round of 32 takes 7 s (see README.md).
func sharedCohort() []string {
	small := []string{"leela", "nab", "exchange2", "imagick", "cactuBSSN", "xz", "MSER"}
	names := []string{"lbm", "omnetpp"}
	for i := 0; i < 14; i++ {
		names = append(names, small[i%len(small)])
	}
	return names
}

func runSharedQuota(rc *roundCtx) {
	var (
		eng *sim.Engine
		err error
	)
	cp := rc.newProbes(true)
	rc.log.do("setup", func() error {
		names := sharedCohort()
		encs := make([]sim.Enclave, 0, len(names))
		for i, name := range names {
			w := mustWorkload(name)
			src := rc.rotate(w.Stream(workload.Ref), w.FootprintPages)
			if rc.size.sharedLimit > 0 {
				src = mem.Limit(src, rc.size.sharedLimit)
			}
			encs = append(encs, sim.Enclave{Name: fmt.Sprintf("%s#%d", name, i), Stream: cp.stream(src), Pages: w.ELRangePages(), Scheme: sim.DFPStop})
		}
		eng, err = rc.newEngine(encs, sim.SharedConfig{EPCPages: sharedEPC, Quota: arbiter.Adaptive, Hook: cp.hook(nil)})
		return nil
	})
	rc.log.do("simulate", func() error {
		rc.check("shared", 1, func() (string, error) {
			if err != nil {
				return "", err
			}
			if err := rc.simCell(cp, "shared", func() error { return cp.drain(eng) }); err != nil {
				return "", err
			}
			rc.collect(eng)
			return digest(eng.Results()), nil
		})
		return nil
	})
}

//go:embed fleet.json
var fleetSpec []byte

func runFleetTraced(rc *roundCtx) {
	rc.check("fleet", 1, func() (string, error) { return fleetRound(rc) })
}

// fleetRound runs fleet-traced's three phases and returns the digest of
// the fleet result and every host's replayed report.
func fleetRound(rc *roundCtx) (string, error) {
	dir, err := os.MkdirTemp(rc.workdir, "fleet-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	fr := &fleetRun{}
	rc.fleet = fr
	cp := rc.newProbes(false)

	var (
		arrivals []fleet.Arrival
		sinks    []*obs.StreamSink
		paths    []string
	)
	closeSinks := func() {
		for _, s := range sinks {
			s.Close()
		}
	}
	err = rc.log.do("setup", func() error {
		s, err := spec.Parse(fleetSpec)
		if err != nil {
			return err
		}
		var man *spec.Manifest
		if err := rc.log.do("spec.Compile", func() (err error) {
			arrivals, man, err = spec.Compile(s, spec.Options{
				Scheme:    sim.DFPStop,
				Selection: func(w *workload.Workload) (*sip.Selection, error) { return rc.profile(w, fleetEPC) },
			})
			return err
		}); err != nil {
			return err
		}
		// The spec's own seed fixes the traffic: which launches arrive
		// when. The benchmark seed only rotates page spaces (see rotate).
		for i := range arrivals {
			enc := &arrivals[i].Enclave
			enc.Stream = rc.rotate(enc.Stream, mustWorkload(man.Launches[i].Workload).FootprintPages)
			if rc.size.fleetLimit > 0 {
				enc.Stream = mem.Limit(enc.Stream, rc.size.fleetLimit)
			}
			enc.Stream = cp.stream(enc.Stream)
			if i == 0 || arrivals[i].At != arrivals[i-1].At {
				fr.barriers++
			}
		}
		fr.barriers++ // the final drain
		fr.launches = len(arrivals)
		for h := 0; h < fleetHosts; h++ {
			path := filepath.Join(dir, fmt.Sprintf("host%d.jsonl", h))
			s, err := obs.NewStreamSinkFile(path)
			if err != nil {
				fleet.CloseArrivals(arrivals)
				return err
			}
			sinks = append(sinks, s)
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		closeSinks()
		return "", err
	}

	hooks := make([]obs.Hook, fleetHosts)
	for h, s := range sinks {
		hooks[h] = cp.hook(s)
	}
	cfg := fleet.Config{
		Hosts:    fleetHosts,
		Policy:   fleet.Affinity,
		Platform: sim.SharedConfig{EPCPages: fleetEPC, HookFactory: func(h int) obs.Hook { return hooks[h] }},
		Workers:  fleetWorkers,
	}
	err = rc.log.do("simulate", func() error {
		return rc.simCell(cp, "fleet", func() error {
			if err := rc.log.do("fleet.Run", func() (err error) {
				fr.res, err = fleet.Run(arrivals, cfg)
				return err
			}); err != nil {
				closeSinks()
				return err
			}
			for i, s := range sinks {
				if err := rc.log.do("obs.StreamSink.Close", s.Close); err != nil {
					closeSinks()
					return fmt.Errorf("trace %s: %w", paths[i], err)
				}
				fr.sinkEvents += s.Events()
			}
			return nil
		})
	})
	if err != nil {
		return "", err
	}
	for _, h := range fr.res.Hosts {
		for _, e := range h.Enclaves {
			rc.results = append(rc.results, e.Result)
		}
		rc.resident += h.EPCResident
	}

	var reports []string
	err = rc.log.do("report", func() error {
		for _, path := range paths {
			// Each host trace is replayed as its own sgxsim -replay would
			// be: a collection first keeps the simulation's and the
			// previous host's garbage out of this replay's peak memory,
			// which would otherwise depend on when the collector ran.
			runtime.GC()
			var events []obs.Event
			if err := rc.log.do("replay.ReadFile", func() (err error) {
				events, err = replay.ReadFile(path)
				return err
			}); err != nil {
				return err
			}
			rc.log.do("obs.BuildReport", func() error {
				reports = append(reports, obs.BuildReport(events).String())
				return nil
			})
			fr.replayEvents += len(events)
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			fr.traceBytes += st.Size()
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return digest(fr.res, reports), nil
}

// rotate is how the seed enters shared-quota and fleet-traced: every
// enclave's pages are rotated by a seed-drawn offset modulo its
// footprint. Every page number then depends on the seed, while the
// page-level pattern, and so the amount of simulated work, does not. The
// alternatives move the work itself: seeding the order of a 32-enclave
// shared cohort changed a round's host time by up to 45%, and seeding
// fleet-traced's spec by about 10%, which would swamp every regression
// bound.
func (rc *roundCtx) rotate(src mem.Stream, footprint uint64) mem.Stream {
	if rc.rot == nil {
		rc.rot = rng.New(rc.seed)
	}
	return &rotated{src: src, footprint: footprint, off: rc.rot.Uint64n(footprint)}
}

// rotated shifts every page of src by off modulo the footprint, keeping
// the page-level pattern's shape. It forwards Close.
type rotated struct {
	src            mem.Stream
	footprint, off uint64
}

func (r *rotated) Next() (mem.Access, bool) {
	a, ok := r.src.Next()
	if ok {
		a.Page = mem.PageID((uint64(a.Page) + r.off) % r.footprint)
	}
	return a, ok
}

func (r *rotated) Close() {
	if c, ok := r.src.(mem.Closer); ok {
		c.Close()
	}
}

// digest is the FNV-64a hash of every field of vs, walked in declaration
// order: a simulated result that changes in any field changes the digest.
func digest(vs ...any) string {
	h := fnv.New64a()
	for _, v := range vs {
		hashValue(h, reflect.ValueOf(v))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func hashValue(h hash.Hash64, v reflect.Value) {
	var b [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.String:
		word(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Bool:
		if v.Bool() {
			word(1)
		} else {
			word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		word(v.Uint())
	case reflect.Float32, reflect.Float64:
		word(math.Float64bits(v.Float()))
	default:
		panic(fmt.Sprintf("digest: cannot hash a %s", v.Type()))
	}
}
