package replay

import (
	"math/rand"
	"strings"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/obs"
)

// randomEvents is a seeded n-event timeline mixing every kind, the
// NoPage sentinel and values across the whole uint64 range.
func randomEvents(n int) []obs.Event {
	rng := rand.New(rand.NewSource(4))
	kinds := obs.Kinds()
	events := make([]obs.Event, n)
	for i := range events {
		events[i] = obs.Event{
			T:     uint64(i) * 23,
			Kind:  kinds[rng.Intn(len(kinds))],
			Page:  mem.PageID(rng.Intn(4096)),
			Batch: uint64(rng.Intn(8)),
			V1:    rng.Uint64() >> uint(rng.Intn(64)),
			V2:    rng.Uint64() >> uint(rng.Intn(64)),
		}
		if rng.Intn(16) == 0 {
			events[i].Page = mem.NoPage
		}
	}
	return events
}

// benchTrace renders a 10k-event timeline once in both formats.
var benchTraceJSONL, benchTraceCSV = func() (string, string) {
	events := randomEvents(10_000)
	var j, c strings.Builder
	if err := obs.WriteJSONL(&j, events); err != nil {
		panic(err)
	}
	if err := obs.WriteCSV(&c, events); err != nil {
		panic(err)
	}
	return j.String(), c.String()
}()

func BenchmarkTraceParse(b *testing.B) {
	b.Run("jsonl", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(benchTraceJSONL)))
		for i := 0; i < b.N; i++ {
			if _, err := ReadJSONL(strings.NewReader(benchTraceJSONL)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(benchTraceCSV)))
		for i := 0; i < b.N; i++ {
			if _, err := ReadCSV(strings.NewReader(benchTraceCSV)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReadFile replays a 100k-event trace file in each format. Its
// B/op is the replay's whole allocation: about 48 B per event when the
// event slice is allocated once at its exact size.
func BenchmarkReadFile(b *testing.B) {
	events := randomEvents(100_000)
	for _, ext := range []string{"jsonl", "csv"} {
		path := writeTraceFile(b, ext, events)
		b.Run(ext, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceParseRef measures the pre-optimization per-line parsers
// (encoding/json and strings.Split+strconv) over the same trace bodies,
// as the baseline for the parse speedup recorded in BENCH_engine.json.
func BenchmarkTraceParseRef(b *testing.B) {
	jsonLines := strings.Split(strings.TrimSuffix(benchTraceJSONL, "\n"), "\n")[1:]
	csvLines := strings.Split(strings.TrimSuffix(benchTraceCSV, "\n"), "\n")[2:]
	b.Run("jsonl", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(benchTraceJSONL)))
		for i := 0; i < b.N; i++ {
			for _, line := range jsonLines {
				if _, err := refParseJSONLEvent([]byte(line)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(benchTraceCSV)))
		for i := 0; i < b.N; i++ {
			for _, line := range csvLines {
				if _, err := refParseCSVEvent([]byte(line)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
