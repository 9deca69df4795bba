package experiments

import (
	"strings"
	"testing"
)

// TestReplayRoundTrip pins the replay experiment's core claim on a cheap
// benchmark: the Report derived from a parsed JSONL export is
// byte-identical to the live recorder's, and the DFP vs DFP-stop diff is
// well-formed.
func TestReplayRoundTrip(t *testing.T) {
	a, err := ReplayRun(sharedRunner, "cactuBSSN")
	if err != nil {
		t.Fatal(err)
	}
	if !a.EventsIdentical {
		t.Error("replayed timeline differs from the recorded one")
	}
	if !a.ReportIdentical {
		t.Error("replayed Report differs from the live Report")
	}
	if a.Events == 0 || a.TraceBytes == 0 {
		t.Fatalf("empty trace: %d events, %d bytes", a.Events, a.TraceBytes)
	}
	if a.Diff.LenA == 0 || a.Diff.LenB == 0 {
		t.Fatalf("diff sides empty: %d vs %d", a.Diff.LenA, a.Diff.LenB)
	}
	text := a.String()
	for _, want := range []string{"round-trip events:   byte-identical",
		"round-trip report:   byte-identical", "report metrics (a vs b, diff):"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestReplayDivergenceOnValveBenchmark checks the diff half on a pair
// that actually diverges: a benchmark whose DFP run mispredicts enough
// that DFP-stop behaves differently.
func TestReplayDivergenceOnValveBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("deepsjeng trace pair is slow")
	}
	a, err := Replay(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if a.Benchmark != "deepsjeng" {
		t.Fatalf("default replay benchmark = %s", a.Benchmark)
	}
	if a.Diff.Identical || a.Diff.First == nil {
		t.Fatal("DFP vs DFP-stop on deepsjeng reported identical timelines")
	}
	var stopDelta *float64
	for _, dl := range a.Diff.Report {
		if dl.Name == "dfp_stop_cycle" {
			v := dl.Diff
			stopDelta = &v
		}
	}
	if stopDelta == nil || *stopDelta == 0 {
		t.Fatal("diff does not show the DFP-stop trip cycle moving")
	}
}
