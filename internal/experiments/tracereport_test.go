package experiments

import (
	"strings"
	"testing"

	"sgxpreload/internal/sim"
	"sgxpreload/internal/workload"
)

func TestTraceReport(t *testing.T) {
	a, err := Trace(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if a.Benchmark != "deepsjeng" || a.Scheme != sim.DFPStop {
		t.Fatalf("default trace = %s/%s", a.Benchmark, a.Scheme)
	}
	if !a.Result.Kernel.DFPStopped {
		t.Fatal("traced deepsjeng run did not trip the safety valve")
	}
	if a.Report.StopCycle != a.Result.Kernel.DFPStopCycle {
		t.Fatalf("timeline stop cycle %d, Result says %d",
			a.Report.StopCycle, a.Result.Kernel.DFPStopCycle)
	}
	text := a.String()
	for _, want := range []string{"traced run:", "safety valve:", "matches", "events by kind:"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
	charts := a.Charts()
	if len(charts) != 1 || len(charts[0].Series) == 0 {
		t.Fatalf("trace report carries %d charts", len(charts))
	}
	var hasStop bool
	for _, s := range charts[0].Series {
		if s.Name == "DFP-stop" && s.Kind == "line" {
			hasStop = true
		}
	}
	if !hasStop {
		t.Error("timeline chart missing the DFP-stop marker")
	}
}

func TestRunTracedMatchesRun(t *testing.T) {
	w, err := workload.ByName("cactuBSSN")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sharedRunner.result(sharedRunner.cell(w.Name, sim.DFPStop))
	if err != nil {
		t.Fatal(err)
	}
	traced, rec, err := sharedRunner.RunTraced(w, sim.DFPStop)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Errorf("traced result differs:\n  plain  %+v\n  traced %+v", plain, traced)
	}
	if rec.Len() == 0 {
		t.Error("traced run recorded no events")
	}
}
