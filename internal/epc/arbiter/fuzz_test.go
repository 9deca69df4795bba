package arbiter

import (
	"testing"

	"sgxpreload/internal/epc"
	"sgxpreload/internal/mem"
)

// fuzzOwnerPages is the page range each fuzzed enclave owns in the EPC.
// Quotas come from the declared footprint, which is drawn independently,
// so the ranges only need to be wide enough to overfill small EPCs.
const fuzzOwnerPages = 64

// FuzzArbiter drives random AddEnclave/NoteFault/NoteScan sequences, plus
// the kernel's load-evict path over a real EPC, under every policy, and
// checks the arbiter's properties after every operation: Global assigns
// no quotas, every other policy's quotas stay at or above one frame, one rebalance moves any quota by at most
// max(1, capacity/8), Static and Proportional quotas sum to exactly
// capacity whenever capacity >= N, Proportional quotas follow declared
// footprints, and VictimOwner names an owner holding frames or the
// faulting enclave itself.
func FuzzArbiter(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 3, 0, 3, 1, 1, 0, 2, 0, 9}, uint8(3), uint16(7))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 0, 3, 0, 3, 1, 3, 2, 4, 0, 2, 1, 0}, uint8(1), uint16(2))
	f.Add([]byte{0, 255, 0, 1, 1, 0, 1, 0, 1, 0, 2, 0, 255, 2, 1, 0}, uint8(2), uint16(1000))
	f.Fuzz(func(t *testing.T, ops []byte, policySel uint8, capSel uint16) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		policy := Policy(int(policySel) % len(Policies()))
		capacity := 1 + int(capSel)%512
		a, err := New(policy, capacity)
		if err != nil {
			t.Fatal(err)
		}
		e, err := epc.New(capacity, fuzzOwnerPages)
		if err != nil {
			t.Fatal(err)
		}
		var declared []uint64
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		check := func(op string, before []int) {
			t.Helper()
			n := a.N()
			if policy == Global {
				for i := 0; i < n; i++ {
					if q := a.Quota(i); q != 0 {
						t.Fatalf("%s: Global Quota(%d) = %d, want none", op, i, q)
					}
				}
				return
			}
			sum := 0
			for i := 0; i < n; i++ {
				q := a.Quota(i)
				if q < 1 {
					t.Fatalf("%s: Quota(%d) = %d, below the one-frame floor", op, i, q)
				}
				sum += q
			}
			if (policy == Static || policy == Proportional) && n > 0 && capacity >= n && sum != capacity {
				t.Fatalf("%s: %v quotas sum to %d, capacity %d", op, policy, sum, capacity)
			}
			if policy == Proportional {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if declared[i] >= declared[j] && a.Quota(i)+1 < a.Quota(j) {
							t.Fatalf("%s: enclave %d declares %d pages for quota %d, enclave %d declares %d for quota %d",
								op, i, declared[i], a.Quota(i), j, declared[j], a.Quota(j))
						}
					}
				}
			}
			if before != nil {
				step := max(1, capacity/8)
				for i, q := range before {
					if d := a.Quota(i) - q; d > step || -d > step {
						t.Fatalf("%s: rebalance moved Quota(%d) from %d to %d, bound %d", op, i, q, a.Quota(i), step)
					}
				}
			}
		}
		for len(ops) > 0 {
			n := a.N()
			switch op := next() % 5; {
			case op == 0 || n == 0:
				if n == 64 {
					continue
				}
				// Footprints from one page to 2^40 pages (a 4 PiB ELRANGE).
				d := uint64(next()+1) << (next() % 33)
				if err := e.Grow(uint64(n+1) * fuzzOwnerPages); err != nil {
					t.Fatal(err)
				}
				if n > 0 {
					if owner := e.AddOwner(); owner != n {
						t.Fatalf("EPC AddOwner returned owner %d, want %d", owner, n)
					}
				}
				if owner := a.AddEnclave(d); owner != n {
					t.Fatalf("AddEnclave returned owner %d, want %d", owner, n)
				}
				declared = append(declared, d)
				check("AddEnclave", nil)
			case op == 1:
				a.NoteFault(next() % n)
				check("NoteFault", nil)
			case op == 2:
				before := a.Quotas(nil)
				o := next() % n
				changed := a.NoteScan(o, next()*next())
				if changed && policy != Adaptive {
					t.Fatalf("%v policy rebalanced", policy)
				}
				check("NoteScan", before)
			case op == 3:
				// The kernel's fault path: evict through the arbiter's
				// choice when the EPC is full, then load.
				o := next() % n
				p := mem.PageID(o*fuzzOwnerPages + next()%fuzzOwnerPages)
				if e.Present(p) {
					continue
				}
				if e.Full() {
					v := a.VictimOwner(e, o)
					switch {
					case policy == Global:
						if v != -1 {
							t.Fatalf("Global VictimOwner = %d, want -1", v)
						}
					case v != o && e.OwnerResident(v) == 0:
						t.Fatalf("VictimOwner(%d) = %d, which holds no frames", o, v)
					}
					victim := mem.NoPage
					if v >= 0 {
						victim = e.SelectVictimOwned(v)
					}
					if victim == mem.NoPage {
						victim = e.SelectVictim()
					}
					e.Evict(victim)
				}
				if err := e.Load(p, o, false); err != nil {
					t.Fatal(err)
				}
			case op == 4:
				e.Evict(mem.PageID(next() % (n * fuzzOwnerPages)))
			}
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
