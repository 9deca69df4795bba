package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
	"sgxpreload/internal/sip"
	"sgxpreload/internal/workload"
)

// nextOnly hides a stream's Chunk method, so the engine pulls it one
// access at a time through Next.
type nextOnly struct{ src mem.Stream }

func (s nextOnly) Next() (mem.Access, bool) { return s.src.Next() }
func (s nextOnly) Close()                   { mem.Close(s.src) }

// chunkCell is one golden cell's cohort, built with materialized traces.
type chunkCell struct {
	name     string
	enclaves func(t *testing.T) []Enclave
	epc      int
}

// chunkCells are the golden table's cells (see TestGoldenVsSeed).
func chunkCells() []chunkCell {
	sels := map[string]*sip.Selection{}
	enclave := func(t *testing.T, bench string, s Scheme) Enclave {
		w, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		e := Enclave{Name: bench, Trace: w.Generate(workload.Ref), Pages: w.ELRangePages(), Scheme: s}
		if s.UsesSIP() {
			if sels[bench] == nil {
				sels[bench] = diffSelection(t, w)
			}
			e.Selection = sels[bench]
		}
		return e
	}
	var cells []chunkCell
	for _, bench := range diffBenches {
		for _, s := range diffSchemes {
			cells = append(cells, chunkCell{name: "run/" + bench + "/" + s.String(), epc: 2048,
				enclaves: func(t *testing.T) []Enclave { return []Enclave{enclave(t, bench, s)} }})
		}
	}
	pair := func(a, b string, sa, sb Scheme) chunkCell {
		return chunkCell{name: fmt.Sprintf("shared/%s:%s+%s:%s", a, sa, b, sb), epc: 2048,
			enclaves: func(t *testing.T) []Enclave { return []Enclave{enclave(t, a, sa), enclave(t, b, sb)} }}
	}
	return append(cells,
		pair("lbm", "deepsjeng", DFPStop, Baseline),
		pair("microbenchmark", "lbm", DFP, SIP),
		chunkCell{name: "shared/tiebreak-E64", epc: 64 * 8,
			enclaves: func(*testing.T) []Enclave { return tieBreakEnclaves(64) }})
}

// chunkFeed re-feeds a cohort built with traces. As a trace, each
// enclave keeps its Trace (a slice stream); as a stream, a workload's
// enclave pulls its generator, and any other a Limit over its trace.
// hide wraps either in nextOnly.
func chunkFeed(encs []Enclave, stream, hide bool) []Enclave {
	out := make([]Enclave, len(encs))
	for i, e := range encs {
		out[i] = e
		if !stream && !hide {
			continue
		}
		src := mem.SliceStream(e.Trace)
		if stream {
			if w, err := workload.ByName(e.Name); err == nil {
				src = w.Stream(workload.Ref)
			} else {
				src = mem.Limit(src, uint64(len(e.Trace)))
			}
		}
		if hide {
			src = nextOnly{src}
		}
		out[i].Trace, out[i].Stream = nil, src
	}
	return out
}

// chunkRun is one run's Results dump and the SHA-256 of its JSONL
// timeline, with the events to render the timeline on a mismatch.
type chunkRun struct {
	results, jsonl string
	events         []obs.Event
}

// eventCap fails the test once a run emits more events than left (the
// golden cells emit at most about 7 per access), so a run that stops
// consuming its input fails instead of growing without bound. A run
// stuck on an access that hits emits no events; watchdog stops that one.
type eventCap struct {
	t    *testing.T
	left int
}

func (c *eventCap) Emit(obs.Event) {
	if c.left--; c.left < 0 {
		c.t.Fatal("the run emitted more than 16 events per access: its input is not being consumed")
	}
}

// watchdog panics, failing the test binary, if a run outlasts a minute;
// each golden cell's run takes well under a second.
func watchdog(label string) *time.Timer {
	return time.AfterFunc(time.Minute, func() {
		panic(label + ": the run did not finish within a minute; its input is not being consumed")
	})
}

// jsonlHash hashes the JSONL export of events without holding it.
func jsonlHash(t *testing.T, events []obs.Event) string {
	h := sha256.New()
	if err := obs.WriteJSONL(h, events); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func jsonlOf(t *testing.T, events []obs.Event) string {
	var b strings.Builder
	if err := obs.WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestChunkDifferential: every golden cell, fed as traces and as
// streams, gives the same Results and the same event timeline under
// Step, Drain and RunUntil whether the engine reads its input in chunks
// or, behind nextOnly, one Next per access.
func TestChunkDifferential(t *testing.T) {
	for _, c := range chunkCells() {
		t.Run(c.name, func(t *testing.T) {
			encs := c.enclaves(t)
			accesses := 0
			for _, e := range encs {
				accesses += len(e.Trace)
			}
			for _, stream := range []bool{false, true} {
				var want chunkRun
				for _, hide := range []bool{true, false} {
					for _, d := range drivers {
						label := fmt.Sprintf("stream=%v nextOnly=%v %s", stream, hide, d.name)
						rec := obs.NewRecorder()
						hook := obs.Tee(rec, &eventCap{t: t, left: 16*accesses + 4096})
						eng, err := New(chunkFeed(encs, stream, hide), SharedConfig{EPCPages: c.epc, Hook: hook})
						if err != nil {
							t.Fatal(err)
						}
						dog := watchdog(c.name + " " + label)
						err = d.drive(eng)
						dog.Stop()
						if err != nil {
							t.Fatal(err)
						}
						got := chunkRun{fmt.Sprintf("%#v", eng.Results()), jsonlHash(t, rec.Events()), rec.Events()}
						if want.results == "" {
							want = got
							continue
						}
						if got.results != want.results {
							t.Errorf("%s: Results diverge from the Next-only Step run:\n  got  %.300s\n  want %.300s", label, got.results, want.results)
						}
						if got.jsonl != want.jsonl {
							t.Errorf("%s: timeline diverges from the Next-only Step run: %s", label,
								firstDiffLine(jsonlOf(t, got.events), jsonlOf(t, want.events)))
						}
					}
				}
			}
		})
	}
}

// TestChunkEngineClose: an engine closed partway through a chunk and
// then drained runs exactly what it runs with Chunk hidden. A closed
// generator or Limit ends its enclave at the access already looked
// ahead, however much of its chunk is left; a slice stream holds nothing
// to release, so its enclave runs the rest of its trace.
func TestChunkEngineClose(t *testing.T) {
	w, err := workload.ByName("deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Generate(workload.Ref)
	feeds := []struct {
		name string
		src  func() mem.Stream
		runs int // accesses the enclave runs
	}{
		{"generator", func() mem.Stream { return w.Stream(workload.Ref) }, 101},
		{"limit", func() mem.Stream { return mem.Limit(mem.SliceStream(tr), uint64(len(tr))) }, 101},
		{"slice", func() mem.Stream { return mem.SliceStream(tr) }, len(tr)},
	}
	for _, f := range feeds {
		var want string
		for _, hide := range []bool{false, true} {
			src := f.src()
			if hide {
				src = nextOnly{src}
			}
			eng, err := New([]Enclave{{Name: w.Name, Stream: src, Pages: w.ELRangePages(), Scheme: DFP}}, SharedConfig{EPCPages: 2048})
			if err != nil {
				t.Fatal(err)
			}
			for range 100 {
				if _, err := eng.Step(); err != nil {
					t.Fatal(err)
				}
			}
			eng.Close()
			if err := eng.Drain(); err != nil {
				t.Fatal(err)
			}
			r := eng.Result(0).Result
			if r.Accesses != uint64(f.runs) {
				t.Errorf("%s nextOnly=%v: %d accesses after Close and Drain, want %d", f.name, hide, r.Accesses, f.runs)
			}
			if got := fmt.Sprintf("%#v", r); want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s: the Next-only run's Result differs:\n  got  %.300s\n  want %.300s", f.name, got, want)
			}
		}
	}
}
