package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sgxpreload/internal/fleet"
	"sgxpreload/internal/mem"
	"sgxpreload/internal/sim"
)

// TestCoRunStudiesDeterministic: every co-run study renders identically
// at any worker-pool size, though its fleet cells run side by side on
// the pool and share the runner's trace and selection caches. Fresh
// runners on both sides, so neither leans on the other's caches.
func TestCoRunStudiesDeterministic(t *testing.T) {
	studies := []struct {
		name string
		run  func(r *Runner) (fmt.Stringer, error)
	}{
		{"ablation-shared", func(r *Runner) (fmt.Stringer, error) { return SharedEPC(r) }},
		{"fleet-sharded", func(r *Runner) (fmt.Stringer, error) { return ShardedFleet(r) }},
		{"fleet-policies", func(r *Runner) (fmt.Stringer, error) { return FleetPolicies(r) }},
		{"epc-partition", func(r *Runner) (fmt.Stringer, error) { return EPCPartition(r) }},
		{"saturation", func(r *Runner) (fmt.Stringer, error) { return Saturation(r) }},
	}
	for _, s := range studies {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			var outs []string
			for _, workers := range []int{1, 8} {
				r := NewRunner(Default())
				r.SetParallelism(workers)
				v, err := s.run(r)
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, fmt.Sprintf("%#v\n%s", v, v.String()))
			}
			if outs[0] != outs[1] {
				t.Errorf("%s differs between 1 and 8 workers:\n%s\nvs\n%s", s.name, outs[0], outs[1])
			}
		})
	}
}

// countStream yields n accesses to page 0 and records whether it ran
// out and how often it was closed.
type countStream struct {
	n      int
	ended  bool
	closes int
}

func (s *countStream) Next() (mem.Access, bool) {
	if s.n == 0 {
		s.ended = true
		return mem.Access{}, false
	}
	s.n--
	return mem.Access{Compute: 10}, true
}

func (s *countStream) Close() { s.closes++ }

// countArrivals returns n t = 0 arrivals over fresh count streams.
func countArrivals(n int) ([]fleet.Arrival, []*countStream) {
	arrivals := make([]fleet.Arrival, n)
	streams := make([]*countStream, n)
	for i := range arrivals {
		streams[i] = &countStream{n: 4}
		arrivals[i].Enclave = sim.Enclave{Name: fmt.Sprint("count/", i), Pages: 8, Stream: streams[i]}
	}
	return arrivals, streams
}

// TestFleetCellsCloseStreams: no failure path leaks an arrival stream.
// When one fleet cell fails, every stream of every cell is closed once
// (the failing cell's by fleet.Run, the cells the pool never started by
// the driver) or, for a cell that ran, drained to its end. Saturation
// compiles every scale before running any, so a scale that fails to
// compile must close the scales compiled before it.
func TestFleetCellsCloseStreams(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("fleets/workers=%d", workers), func(t *testing.T) {
			r := NewRunner(Default())
			r.SetParallelism(workers)
			var cells []*fleetCell
			var streams [][]*countStream
			for i := 0; i < 4; i++ {
				arrivals, s := countArrivals(2)
				cfg := fleet.Config{Hosts: 1, Platform: sim.SharedConfig{EPCPages: 4}}
				if i == 1 {
					cfg.Hosts = 0
				}
				cells = append(cells, &fleetCell{label: fmt.Sprint("cell", i), arrivals: arrivals, cfg: cfg})
				streams = append(streams, s)
			}
			_, err := r.fleets("close-test", cells)
			if err == nil || !strings.Contains(err.Error(), "close-test/cell1") {
				t.Fatalf("err = %v, want the Hosts: 0 failure of cell1", err)
			}
			for i, cs := range streams {
				for j, s := range cs {
					if s.closes > 1 || (s.closes == 0 && !s.ended) {
						t.Errorf("cell %d stream %d: closed %d times, drained %t", i, j, s.closes, s.ended)
					}
					// At one worker the pool runs cell 0, fails on cell 1
					// and never starts cells 2 and 3.
					if workers == 1 && i >= 1 && s.closes != 1 {
						t.Errorf("cell %d stream %d: closed %d times, want 1", i, j, s.closes)
					}
				}
			}
		})
	}
	t.Run("saturation-compile", func(t *testing.T) {
		var compiled [][]*countStream
		_, err := saturation(NewRunner(Default()), []float64{0.5, 1, 2}, func(scale float64) ([]fleet.Arrival, error) {
			if scale == 2 {
				return nil, errors.New("compile failed")
			}
			arrivals, s := countArrivals(3)
			compiled = append(compiled, s)
			return arrivals, nil
		})
		if err == nil || !strings.Contains(err.Error(), "saturation x2") {
			t.Fatalf("err = %v, want the x2 compile failure", err)
		}
		if len(compiled) != 2 {
			t.Fatalf("compiled %d scales before the failure, want 2", len(compiled))
		}
		for i, cs := range compiled {
			for j, s := range cs {
				if s.closes != 1 || s.ended {
					t.Errorf("scale %d stream %d: closed %d times, drained %t; want closed once, never run",
						i, j, s.closes, s.ended)
				}
			}
		}
	})
}
