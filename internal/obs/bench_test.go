package obs

import (
	"bufio"
	"fmt"
	"io"
	"testing"
)

// benchTimeline is a fixed 10k-event timeline with realistic field
// mixes for the write benchmarks.
var benchTimeline = sinkEvents(10_000)

// writeJSONLFmt is the pre-optimization writer (fmt.Fprintf per line
// through a bufio.Writer), kept as the benchmark baseline so the
// speedup claimed in BENCH_engine.json stays reproducible, and as the
// independent encoder the sink tests compare trace bytes against.
func writeJSONLFmt(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintln(bw, TraceHeaderJSONL())
	for _, e := range events {
		fmt.Fprintf(bw, `{"t":%d,"kind":%q,"page":%d,"batch":%d,"v1":%d,"v2":%d}`+"\n",
			e.T, e.Kind.String(), pageField(e.Page), e.Batch, e.V1, e.V2)
	}
	return bw.Flush()
}

func writeCSVFmt(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintln(bw, TraceHeaderCSV())
	fmt.Fprintln(bw, TraceColumnsCSV)
	for _, e := range events {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d\n",
			e.T, e.Kind.String(), pageField(e.Page), e.Batch, e.V1, e.V2)
	}
	return bw.Flush()
}

func BenchmarkTraceWrite(b *testing.B) {
	b.Run("jsonl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteJSONL(io.Discard, benchTimeline); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteCSV(io.Discard, benchTimeline); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTraceWriteFmt(b *testing.B) {
	b.Run("jsonl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writeJSONLFmt(io.Discard, benchTimeline); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writeCSVFmt(io.Discard, benchTimeline); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamSink measures the per-event cost of the streaming
// hook path the engine pays when -trace is on.
func BenchmarkStreamSink(b *testing.B) {
	s := NewStreamSink(io.Discard, FormatJSONL)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Emit(benchTimeline[i%len(benchTimeline)])
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}
