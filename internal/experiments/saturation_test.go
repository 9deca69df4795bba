package experiments

import (
	"strings"
	"testing"
)

// TestSaturation pins the study's headline: offered load scales with
// the rate multiplier, the fleet absorbs the low rates without
// shedding, and past the knee the front door sheds while the fault p99
// sits above the low-rate plateau.
func TestSaturation(t *testing.T) {
	a, err := Saturation(sharedRunner)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(saturationScales) {
		t.Fatalf("got %d points for %d scales", len(a.Points), len(saturationScales))
	}
	for i := 1; i < len(a.Points); i++ {
		if a.Points[i].Launches <= a.Points[i-1].Launches {
			t.Errorf("launches did not grow with rate: x%g -> %d, x%g -> %d",
				a.Points[i-1].Scale, a.Points[i-1].Launches,
				a.Points[i].Scale, a.Points[i].Launches)
		}
	}
	if a.Points[0].Shed != 0 {
		t.Errorf("lowest rate already sheds %d launches; the sweep has no pre-knee plateau", a.Points[0].Shed)
	}
	knee := a.Knee()
	if knee <= 0 {
		t.Fatalf("no knee found (knee index %d):\n%s", knee, a)
	}
	last := a.Points[len(a.Points)-1]
	if last.Shed == 0 {
		t.Errorf("highest rate x%g shed nothing; admission control never engaged", last.Scale)
	}
	if !(last.FaultP99 > a.Points[0].FaultP99) {
		t.Errorf("fault p99 did not rise from %.0f (x%g) to the top rate's %.0f (x%g)",
			a.Points[0].FaultP99, a.Points[0].Scale, last.FaultP99, last.Scale)
	}
	out := a.String()
	for _, want := range []string{"rate", "fault-p99", "knee at x"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
