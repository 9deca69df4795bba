package epc

import (
	"strings"
	"testing"

	"sgxpreload/internal/mem"
	"sgxpreload/internal/rng"
)

func mustPolicy(t *testing.T, capacity int, pages uint64, pol Policy) *EPC {
	t.Helper()
	e, err := NewWithPolicy(capacity, pages, pol)
	if err != nil {
		t.Fatalf("NewWithPolicy(%v): %v", pol, err)
	}
	return e
}

// TestPolicyStrings pins each policy's name, that PolicyByName resolves
// it back, and that an unknown name fails with an error naming it.
func TestPolicyStrings(t *testing.T) {
	for pol, want := range map[Policy]string{
		PolicyClock: "clock", PolicyFIFO: "fifo", PolicyLRU: "lru", PolicyRandom: "random",
	} {
		if pol.String() != want {
			t.Errorf("%d.String() = %q, want %q", pol, pol.String(), want)
		}
		if got, err := PolicyByName(want); err != nil || got != pol {
			t.Errorf("PolicyByName(%q) = %v, %v; want %v", want, got, err, pol)
		}
	}
	if _, err := PolicyByName("mru"); err == nil || !strings.Contains(err.Error(), `"mru"`) {
		t.Fatalf("PolicyByName(\"mru\") error %v does not name the policy", err)
	}
}

func TestNewWithPolicyRejectsUnknown(t *testing.T) {
	if _, err := NewWithPolicy(4, 10, Policy(99)); err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, p := range []Policy{-1, PolicyRandom + 1, 99} {
		if err := p.Validate(); err == nil {
			t.Errorf("Policy(%d).Validate() accepted an unknown policy", p)
		}
	}
	for p := PolicyClock; p <= PolicyRandom; p++ {
		if err := p.Validate(); err != nil {
			t.Errorf("%s.Validate() = %v", p, err)
		}
	}
}

func TestFIFOEvictsOldestLoad(t *testing.T) {
	e := mustPolicy(t, 3, 100, PolicyFIFO)
	for _, p := range []mem.PageID{5, 6, 7} {
		if err := e.Load(p, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	// Touching must not matter to FIFO.
	e.Touch(5)
	e.Touch(5)
	if v := e.SelectVictim(); v != 5 {
		t.Fatalf("FIFO victim = %d, want 5 (oldest load)", v)
	}
	e.Evict(5)
	if err := e.Load(8, 0, false); err != nil {
		t.Fatal(err)
	}
	if v := e.SelectVictim(); v != 6 {
		t.Fatalf("FIFO victim = %d, want 6", v)
	}
}

func TestLRUEvictsLeastRecentlyTouched(t *testing.T) {
	e := mustPolicy(t, 3, 100, PolicyLRU)
	for _, p := range []mem.PageID{1, 2, 3} {
		if err := e.Load(p, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	// Re-touch 1 and 3; 2 becomes LRU.
	e.Touch(1)
	e.Touch(3)
	if v := e.SelectVictim(); v != 2 {
		t.Fatalf("LRU victim = %d, want 2", v)
	}
	// Touch 2; now 1 is LRU (its touch was earliest).
	e.Touch(2)
	if v := e.SelectVictim(); v != 1 {
		t.Fatalf("LRU victim = %d, want 1", v)
	}
}

func TestRandomVictimIsResidentAndDeterministic(t *testing.T) {
	mk := func() []mem.PageID {
		e := mustPolicy(t, 8, 100, PolicyRandom)
		for p := mem.PageID(0); p < 8; p++ {
			if err := e.Load(p, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		var victims []mem.PageID
		for i := 0; i < 5; i++ {
			v := e.SelectVictim()
			if !e.Present(v) {
				t.Fatalf("random victim %d not resident", v)
			}
			e.Evict(v)
			victims = append(victims, v)
		}
		return victims
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy not deterministic across identical histories")
		}
	}
}

func TestAllPoliciesSurviveRandomWorkload(t *testing.T) {
	for _, pol := range []Policy{PolicyClock, PolicyFIFO, PolicyLRU, PolicyRandom} {
		t.Run(pol.String(), func(t *testing.T) {
			r := rng.New(uint64(pol) + 1)
			e := mustPolicy(t, 16, 256, pol)
			for i := 0; i < 3000; i++ {
				p := mem.PageID(r.Intn(256))
				if e.Touch(p) {
					continue
				}
				if e.Full() {
					v := e.SelectVictim()
					if v == mem.NoPage || !e.Evict(v) {
						t.Fatalf("step %d: bad victim %d", i, v)
					}
				}
				if err := e.Load(p, 0, r.Intn(3) == 0); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVictimByMinSkipsFreeFrames(t *testing.T) {
	e := mustPolicy(t, 4, 100, PolicyFIFO)
	if err := e.Load(9, 0, false); err != nil {
		t.Fatal(err)
	}
	if v := e.SelectVictim(); v != 9 {
		t.Fatalf("victim = %d with one resident page, want 9", v)
	}
}

// TestClearAccessedPreloads: the scan counts only the named owner's
// accessed preloads and clears only their preload bits.
func TestClearAccessedPreloads(t *testing.T) {
	e := mustPolicy(t, 8, 100, PolicyClock)
	e.AddOwner()
	for _, c := range []struct {
		p     mem.PageID
		owner int
		pre   bool
		touch bool
	}{{10, 0, true, true}, {20, 1, true, true}, {21, 1, true, false}, {22, 1, false, false}, {30, 0, true, true}} {
		if err := e.Load(c.p, c.owner, c.pre); err != nil {
			t.Fatal(err)
		}
		if c.touch {
			e.Touch(c.p)
		}
	}
	if n := e.ClearAccessedPreloads(1); n != 1 {
		t.Fatalf("owner 1 scan counted %d, want 1 (page 20)", n)
	}
	// Owner 0's preloads and owner 1's unaccessed one keep their bits.
	for p, want := range map[mem.PageID]bool{10: true, 20: false, 21: true, 22: false, 30: true} {
		if e.Preloaded(p) != want {
			t.Fatalf("Preloaded(%d) = %v after owner 1's scan, want %v", p, !want, want)
		}
	}
	if n := e.ClearAccessedPreloads(0); n != 2 {
		t.Fatalf("owner 0 scan counted %d, want 2 (pages 10, 30)", n)
	}
	if n := e.ClearAccessedPreloads(2); n != 0 {
		t.Fatalf("unregistered owner 2 scan counted %d, want 0", n)
	}
}
