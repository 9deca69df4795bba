package arbiter

import (
	"math/rand/v2"
	"slices"
	"testing"

	"sgxpreload/internal/epc"
	"sgxpreload/internal/mem"
)

func mustNew(t *testing.T, policy Policy, capacity int) *Arbiter {
	t.Helper()
	a, err := New(policy, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestByNameRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ByName(p.String())
		if err != nil || got != p {
			t.Fatalf("ByName(%q) = (%v, %v), want %v", p.String(), got, err, p)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName accepted a bogus policy")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Static, 0); err == nil {
		t.Fatal("New accepted zero capacity")
	}
	if _, err := New(Policy(99), 8); err == nil {
		t.Fatal("New accepted an unknown policy")
	}
}

func TestStaticSplit(t *testing.T) {
	a := mustNew(t, Static, 10)
	a.AddEnclave(100)
	a.AddEnclave(100)
	a.AddEnclave(100)
	// 10/3: base 3, remainder 1 to the lowest index.
	for i, want := range []int{4, 3, 3} {
		if got := a.Quota(i); got != want {
			t.Fatalf("Quota(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestProportionalRecomputeAcrossAdmit pins the Admit/Grow boundary:
// each admission re-splits the whole capacity by declared footprint.
func TestProportionalRecomputeAcrossAdmit(t *testing.T) {
	a := mustNew(t, Proportional, 100)
	a.AddEnclave(300)
	if got := a.Quota(0); got != 100 {
		t.Fatalf("solo quota = %d, want the full 100", got)
	}
	a.AddEnclave(100)
	if got0, got1 := a.Quota(0), a.Quota(1); got0 != 75 || got1 != 25 {
		t.Fatalf("quotas after admit = (%d, %d), want (75, 25)", got0, got1)
	}
	a.AddEnclave(100)
	if got := a.Quota(0) + a.Quota(1) + a.Quota(2); got != 100 {
		t.Fatalf("quota sum = %d, want 100", got)
	}
	if a.Quota(0) != 60 {
		t.Fatalf("hog quota = %d, want 60", a.Quota(0))
	}
}

// TestQuotaFloor: quotas never go below one frame, even with more
// enclaves than a proportional share would cover.
func TestQuotaFloor(t *testing.T) {
	a := mustNew(t, Proportional, 8)
	a.AddEnclave(1_000_000)
	for i := 0; i < 7; i++ {
		a.AddEnclave(1)
	}
	sum := 0
	for i := 0; i < a.N(); i++ {
		if a.Quota(i) < 1 {
			t.Fatalf("Quota(%d) = %d below the one-frame floor", i, a.Quota(i))
		}
		sum += a.Quota(i)
	}
	if sum != 8 {
		t.Fatalf("quota sum = %d, want 8", sum)
	}
}

// buildEPC returns a 2-owner EPC (ranges [0,32) and [32,64)) with the
// given resident counts, all pages demand-loaded.
func buildEPC(t *testing.T, capacity, res0, res1 int) *epc.EPC {
	t.Helper()
	e, err := epc.New(capacity, 64)
	if err != nil {
		t.Fatal(err)
	}
	e.AddOwner() // owner 1 loads pages [32, 64)
	for p := 0; p < res0; p++ {
		if err := e.Load(mem.PageID(p), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < res1; p++ {
		if err := e.Load(mem.PageID(32+p), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestVictimOwner(t *testing.T) {
	t.Run("global-passthrough", func(t *testing.T) {
		a := mustNew(t, Global, 8)
		a.AddEnclave(32)
		a.AddEnclave(32)
		e := buildEPC(t, 8, 8, 0)
		if got := a.VictimOwner(e, 0); got != -1 {
			t.Fatalf("VictimOwner = %d, want -1 under Global", got)
		}
	})
	t.Run("self-evict-at-quota", func(t *testing.T) {
		a := mustNew(t, Static, 8) // 4 frames each
		a.AddEnclave(32)
		a.AddEnclave(32)
		e := buildEPC(t, 8, 5, 3) // owner 0 over its quota of 4
		if got := a.VictimOwner(e, 0); got != 0 {
			t.Fatalf("over-quota VictimOwner = %d, want self (0)", got)
		}
	})
	t.Run("steal-from-most-over", func(t *testing.T) {
		a := mustNew(t, Static, 8)
		a.AddEnclave(32)
		a.AddEnclave(32)
		e := buildEPC(t, 8, 2, 6) // owner 1 holds 6 of 8 against a quota of 4
		if got := a.VictimOwner(e, 0); got != 1 {
			t.Fatalf("under-quota VictimOwner = %d, want the hog (1)", got)
		}
	})
	t.Run("only-resident-owner-gets-own-scan", func(t *testing.T) {
		a := mustNew(t, Static, 8)
		a.AddEnclave(32)
		a.AddEnclave(32)
		e := buildEPC(t, 8, 3, 0) // under quota, but nobody else to steal from
		if got := a.VictimOwner(e, 0); got != 0 {
			t.Fatalf("VictimOwner = %d, want self (0) with no other resident", got)
		}
	})
}

// TestAdaptiveRebalanceTowardHog: a hog generating faults and touched
// frames pulls quota away from an idle neighbor, under hysteresis, never
// below the neighbor's one-frame floor.
func TestAdaptiveRebalanceTowardHog(t *testing.T) {
	a := mustNew(t, Adaptive, 64)
	a.AddEnclave(64) // starts 32/32 by equal declared footprint
	a.AddEnclave(64)
	if a.Quota(0) != 32 || a.Quota(1) != 32 {
		t.Fatalf("initial quotas = (%d, %d), want (32, 32)", a.Quota(0), a.Quota(1))
	}
	rebalanced := false
	for scan := 0; scan < 20; scan++ {
		for i := 0; i < 48; i++ {
			a.NoteFault(0)
		}
		if a.NoteScan(0, 30) {
			rebalanced = true
		}
		a.NoteScan(1, 0) // idle: nothing touched, nothing faulting
	}
	if !rebalanced {
		t.Fatal("adaptive policy never rebalanced under sustained skew")
	}
	if a.Quota(0) <= 32 {
		t.Fatalf("hog quota = %d, did not grow past its even share", a.Quota(0))
	}
	if a.Quota(1) < 1 {
		t.Fatalf("idle quota = %d, below the one-frame floor", a.Quota(1))
	}
	if sum := a.Quota(0) + a.Quota(1); sum != 64 {
		t.Fatalf("converged quota sum = %d, want 64", sum)
	}
}

// TestAdaptiveHysteresis: estimate jitter below the deadband must not
// move quotas.
func TestAdaptiveHysteresis(t *testing.T) {
	a := mustNew(t, Adaptive, 256) // deadband = 256/64 = 4 frames
	a.AddEnclave(1000)
	a.AddEnclave(1000)
	// Warm the estimators in from the declared-footprint prior until the
	// EWMA has converged on the true symmetric demand.
	for scan := 0; scan < 20; scan++ {
		a.NoteScan(0, 100)
		a.NoteScan(1, 100)
	}
	q0, q1 := a.Quota(0), a.Quota(1)
	for scan := 0; scan < 50; scan++ {
		// Both enclaves report near-identical demand, wobbling by one.
		if a.NoteScan(0, 100+scan%2) || a.NoteScan(1, 100) {
			t.Fatalf("scan %d: rebalanced inside the deadband", scan)
		}
	}
	if a.Quota(0) != q0 || a.Quota(1) != q1 {
		t.Fatal("quotas drifted without a rebalance")
	}
}

// TestAdaptiveBoundedStep: one bursty period moves quota by at most
// capacity/8 frames.
func TestAdaptiveBoundedStep(t *testing.T) {
	a := mustNew(t, Adaptive, 64) // step bound = 8
	a.AddEnclave(64)
	a.AddEnclave(64)
	for i := 0; i < 10_000; i++ {
		a.NoteFault(0)
	}
	before := a.Quota(0)
	a.NoteScan(0, 32)
	if d := a.Quota(0) - before; d > 8 {
		t.Fatalf("one rebalance moved quota by %d frames, bound is 8", d)
	}
}

// TestNonAdaptiveNeverRebalances: Static and Proportional ignore the
// scan/fault feed entirely.
func TestNonAdaptiveNeverRebalances(t *testing.T) {
	for _, p := range []Policy{Global, Static, Proportional} {
		a := mustNew(t, p, 32)
		a.AddEnclave(64)
		a.AddEnclave(64)
		a.NoteFault(0)
		if a.NoteScan(0, 16) {
			t.Fatalf("%v policy rebalanced", p)
		}
	}
}

// stepwiseRepairSum is the frame-at-a-time quota repair that repairSum's
// water-level computation replaced, kept as its oracle.
func stepwiseRepairSum(capacity int, quota []int, total int) {
	for total > capacity {
		best := -1
		for i, q := range quota {
			if q > 1 && (best < 0 || q > quota[best]) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		quota[best]--
		total--
	}
	for total < capacity {
		best := 0
		for i, q := range quota {
			if q < quota[best] {
				best = i
			}
		}
		quota[best]++
		total++
	}
}

// TestRepairSumMatchesStepwise: over random quota vectors above and below
// capacity, with heavy ties and capacities below N, the water-level
// repair produces exactly the stepwise result.
func TestRepairSumMatchesStepwise(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + r.IntN(40)
		spread := 1 + r.IntN(1+r.IntN(200))
		quota := make([]int, n)
		total := 0
		for i := range quota {
			quota[i] = 1 + r.IntN(spread)
			total += quota[i]
		}
		capacity := 1 + r.IntN(2*total+n)
		a := mustNew(t, Static, capacity)
		got := slices.Clone(quota)
		a.repairSum(got, total)
		want := slices.Clone(quota)
		stepwiseRepairSum(capacity, want, total)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: capacity %d, quotas %v: repairSum gave %v, stepwise %v",
				trial, capacity, quota, got, want)
		}
	}
}
