package obs_test

import (
	"fmt"
	"os"

	"sgxpreload/internal/obs"
)

// ExampleWriteJSONL shows the trace wire format: a schema
// header line, then one fixed-field-order JSON object per event.
func ExampleWriteJSONL() {
	rec := obs.NewRecorder()
	rec.Emit(obs.Event{T: 5, Kind: obs.KindLoadStart, Page: 7, Batch: 2, V1: 105, V2: 1})
	rec.Emit(obs.Event{T: 105, Kind: obs.KindLoadComplete, Page: 7, Batch: 2, V2: 1})
	if err := obs.WriteJSONL(os.Stdout, rec.Events()); err != nil {
		panic(err)
	}
	// Output:
	// {"schema":"sgxpreload-trace","version":1,"fields":["t","kind","page","batch","v1","v2"]}
	// {"t":5,"kind":"load_start","page":7,"batch":2,"v1":105,"v2":1}
	// {"t":105,"kind":"load_complete","page":7,"batch":2,"v1":0,"v2":1}
}

// ExampleTee fans one event stream out to several hooks — here a full
// recorder plus a bounded ring for live scraping.
func ExampleTee() {
	rec := obs.NewRecorder()
	ring := obs.NewRing(1) // retains only the newest event
	hook := obs.Tee(rec, ring)
	hook.Emit(obs.Event{T: 1, Kind: obs.KindFaultBegin, Page: 3})
	hook.Emit(obs.Event{T: 2, Kind: obs.KindFaultEnd, Page: 3, V1: 1})
	window, first := ring.Snapshot()
	fmt.Println("recorded:", rec.Len())
	fmt.Println("ring window:", len(window), "starting at seq", first)
	// Output:
	// recorded: 2
	// ring window: 1 starting at seq 2
}

// ExampleBuildReport derives run metrics from a recorded timeline.
func ExampleBuildReport() {
	events := []obs.Event{
		{T: 100, Kind: obs.KindFaultBegin, Page: 7},
		{T: 64_100, Kind: obs.KindFaultEnd, Page: 7, V1: 64_000},
	}
	report := obs.BuildReport(events)
	fmt.Println("span:", report.Span)
	fmt.Println("faults:", report.Latency.Total)
	fmt.Printf("mean latency: %.0f\n", report.Latency.Mean())
	// Output:
	// span: 64100
	// faults: 1
	// mean latency: 64000
}
