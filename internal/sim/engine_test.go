package sim

import (
	"math"
	"sort"
	"strings"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

// closerStream is a leak detector: a stream that records whether the
// engine released it.
type closerStream struct {
	trace  []mem.Access
	i      int
	closed bool
}

func (c *closerStream) Next() (mem.Access, bool) {
	if c.i >= len(c.trace) {
		return mem.Access{}, false
	}
	a := c.trace[c.i]
	c.i++
	return a, true
}

func (c *closerStream) Close() { c.closed = true }

// TestNewClosesStreamsOnError: a failed construction must release every
// caller-provided stream — including the failing enclave's and those
// after it, whose states were never built. The seed leaked exactly
// those: Close only walked already-built states, so generator
// coroutines behind the failure point were abandoned.
func TestNewClosesStreamsOnError(t *testing.T) {
	mk := func() []*closerStream {
		out := make([]*closerStream, 3)
		for i := range out {
			out[i] = &closerStream{trace: []mem.Access{{Page: 0, Compute: 10}}}
		}
		return out
	}

	t.Run("buildState failure mid-list", func(t *testing.T) {
		streams := mk()
		encs := []Enclave{
			{Name: "a", Stream: streams[0], Pages: 8, Scheme: Baseline},
			// Unknown predictor: buildState fails at index 1, after
			// enclave 0's state (and stream) is wired.
			{Name: "b", Stream: streams[1], Pages: 8, Scheme: DFP, Predictor: "bogus"},
			{Name: "c", Stream: streams[2], Pages: 8, Scheme: Baseline},
		}
		if _, err := New(encs, SharedConfig{EPCPages: 16}); err == nil {
			t.Fatal("want construction error, got nil")
		}
		for i, s := range streams {
			if !s.closed {
				t.Errorf("enclave %d stream leaked (not closed on construction failure)", i)
			}
		}
	})

	t.Run("validation failure before any state", func(t *testing.T) {
		streams := mk()
		encs := []Enclave{
			{Name: "a", Stream: streams[0], Pages: 8, Scheme: Baseline},
			{Name: "b", Stream: streams[1], Pages: 0, Scheme: Baseline}, // zero pages
			{Name: "c", Stream: streams[2], Pages: 8, Scheme: Baseline},
		}
		if _, err := New(encs, SharedConfig{EPCPages: 16}); err == nil {
			t.Fatal("want construction error, got nil")
		}
		for i, s := range streams {
			if !s.closed {
				t.Errorf("enclave %d stream leaked (not closed on validation failure)", i)
			}
		}
	})
}

// TestNewRejectsEvictPolicy: an unknown eviction policy is a platform
// error, so construction reports it, as it does a bad EPCPages, hook or
// cost model, rather than every admission after it. A fixed cohort's
// streams are released and never pulled.
func TestNewRejectsEvictPolicy(t *testing.T) {
	bad := SharedConfig{EPCPages: 64, EvictPolicy: 99}
	if eng, err := NewDynamic(bad); err == nil || !strings.Contains(err.Error(), "unknown eviction policy 99") {
		t.Fatalf("NewDynamic with eviction policy 99 = %v, %v; want an unknown-policy error", eng, err)
	}
	streams := make([]*closerStream, 3)
	encs := make([]Enclave, len(streams))
	for i := range streams {
		streams[i] = &closerStream{trace: []mem.Access{{Page: 0, Compute: 10}}}
		encs[i] = Enclave{Name: string(rune('a' + i)), Stream: streams[i], Pages: 8, Scheme: Baseline}
	}
	if _, err := New(encs, bad); err == nil || !strings.Contains(err.Error(), "unknown eviction policy 99") {
		t.Fatalf("New with eviction policy 99: err = %v", err)
	}
	for i, s := range streams {
		if !s.closed || s.i != 0 {
			t.Errorf("enclave %d stream: closed %v after %d pulls; want closed and never pulled", i, s.closed, s.i)
		}
	}
}

// TestResultAllocFree: Result(i) must derive a single enclave's
// snapshot — no O(E) materialization, no per-call allocation — so a
// live scraper polling one enclave of a large run costs O(1). The seed
// built all E snapshots per call.
func TestResultAllocFree(t *testing.T) {
	eng, err := New(tieBreakEnclaves(64), SharedConfig{EPCPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var sink SharedResult
	allocs := testing.AllocsPerRun(100, func() {
		sink = eng.Result(17)
	})
	if allocs > 0 {
		t.Errorf("Result(i) allocates %.1f times per call, want 0", allocs)
	}
	if sink.Name != "enc0017" {
		t.Errorf("Result(17) snapshots %q, want enc0017", sink.Name)
	}
}

// drivers run an engine to completion Step by Step, with Drain, or with
// RunUntil at every next event, and return the first error.
var drivers = []struct {
	name  string
	drive func(*Engine) error
}{
	{"Step", func(e *Engine) error {
		for {
			more, err := e.Step()
			if err != nil || !more {
				return err
			}
		}
	}},
	{"Drain", (*Engine).Drain},
	{"RunUntil", func(e *Engine) error {
		for {
			next, ok := e.NextKey()
			if !ok {
				return nil
			}
			if err := e.RunUntil(next); err != nil {
				return err
			}
		}
	}},
}

// TestClockSaturation: a run whose virtual time approaches 2^64 must
// error out, not wrap — a wrapped scheduling key would make the
// farthest-ahead enclave look earliest and silently corrupt the
// schedule. The engine detects both spellings of the wrap: the
// scheduling key (clock + next compute) and the clock itself advancing
// past 2^64 inside a step's fault service. Every driver must see them:
// Drain and RunUntil reach the checks inside a burst.
func TestClockSaturation(t *testing.T) {
	cases := []struct {
		name  string
		trace []mem.Access
		want  string // the error's wording, empty when the run succeeds
	}{
		// Two huge computes: the first access executes, then the
		// rescheduling key clock + compute exceeds 2^64.
		{"scheduling key wraps", []mem.Access{
			{Page: 0, Compute: 1 << 63},
			{Page: 1, Compute: (1 << 63) + 1000},
		}, "scheduling key saturated"},
		// The key clock + compute still fits, but the access faults and
		// the fault-service cycles push the clock past 2^64.
		{"clock wraps inside a step", []mem.Access{{Page: 0, Compute: math.MaxUint64 - 2000}}, "virtual clock saturated"},
		{"just below the boundary survives", []mem.Access{{Page: 0, Compute: 1 << 62}, {Page: 1, Compute: 1 << 62}}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, d := range drivers {
				t.Run(d.name, func(t *testing.T) {
					enc := Enclave{Name: "sat", Trace: c.trace, Pages: 8, Scheme: Baseline}
					eng, err := New([]Enclave{enc}, SharedConfig{EPCPages: 16})
					if err != nil {
						t.Fatal(err)
					}
					err = d.drive(eng)
					if c.want == "" {
						if err != nil {
							t.Fatalf("run below the boundary errored: %v", err)
						}
						if got := eng.Result(0).Accesses; got != uint64(len(c.trace)) {
							t.Fatalf("ran %d accesses, want %d", got, len(c.trace))
						}
						return
					}
					if err == nil || !strings.Contains(err.Error(), c.want) {
						t.Fatalf("%s = %v, want %q", d.name, err, c.want)
					}
				})
			}
		})
	}
}

// TestEventHeapProperty: the heap must release enclaves in (key,
// index)-lexicographic order under random pushes and root re-keys — the
// total order behind the strict first-min tie-break.
func TestEventHeapProperty(t *testing.T) {
	r := rng.New(20260808)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		var h eventHeap
		h.init(n)
		keys := make([]uint64, n)
		for i := 0; i < n; i++ {
			keys[i] = r.Uint64n(64) // tiny key space: ties everywhere
			h.push(int32(i), keys[i])
		}
		// Random upward root re-keys through runnerUp and updateMin,
		// the way burst re-keys the enclave it ran.
		for j := 0; j < 2*n; j++ {
			i := h.min()
			up, _, _ := h.runnerUp()
			keys[i] += r.Uint64n(32)
			h.updateMin(keys[i], up)
		}
		order := make([]int32, 0, n)
		for h.len() > 0 {
			i := h.min()
			order = append(order, i)
			h.popMin()
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		sort.Slice(want, func(a, b int) bool {
			ka, kb := keys[want[a]], keys[want[b]]
			return ka < kb || (ka == kb && want[a] < want[b])
		})
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("trial %d: pop order[%d] = enclave %d (key %d), want enclave %d (key %d)",
					trial, i, order[i], keys[order[i]], want[i], keys[want[i]])
			}
		}
	}
}
