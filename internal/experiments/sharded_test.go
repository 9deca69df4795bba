package experiments

import (
	"strings"
	"testing"
)

func TestShardedFleet(t *testing.T) {
	a, err := ShardedFleet(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cycles) != len(a.Shards) || len(a.Names) != len(shardedFleetBenches) {
		t.Fatalf("result shape: %d settings x %d enclaves", len(a.Cycles), len(a.Names))
	}
	// The isolated setting (shards == enclaves) must run each enclave at
	// least as fast as the fully contended single-domain setting, and
	// the fleet total must shrink monotonically as EPC domains are
	// added — contention can only dissolve.
	prev := ^uint64(0)
	for si, shards := range a.Shards {
		var sum uint64
		for i, c := range a.Cycles[si] {
			sum += c
			if c < a.Cycles[len(a.Shards)-1][i] {
				t.Errorf("shards=%d: %s runs faster contended (%d) than isolated (%d)",
					shards, a.Names[i], c, a.Cycles[len(a.Shards)-1][i])
			}
		}
		if sum > prev {
			t.Errorf("shards=%d: fleet total %d exceeds the previous setting's %d (contention grew with more domains)",
				shards, sum, prev)
		}
		prev = sum
	}
	out := a.String()
	for _, want := range []string{"shards", "mean slowdown", "1.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
