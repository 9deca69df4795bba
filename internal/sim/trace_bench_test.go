package sim

import (
	"io"
	"testing"

	"sgxpreload/internal/obs"
)

// BenchmarkRunStreamTraced is BenchmarkRunStream with a StreamSink
// attached: the difference between the two is the full end-to-end cost
// of -trace on a streamed run — event emission, encoding, and the
// double-buffered handoff to the writer goroutine.
func BenchmarkRunStreamTraced(b *testing.B) {
	const pages = 1 << 14
	sink := obs.NewStreamSink(io.Discard, obs.FormatJSONL)
	eng, err := New([]Enclave{{Stream: syntheticStream(pages), Pages: pages, Scheme: DFPStop}},
		SharedConfig{EPCPages: 1024, Hook: sink})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		if _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
}
