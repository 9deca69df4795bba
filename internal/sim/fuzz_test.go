package sim

import (
	"fmt"
	"testing"

	"sgxpreload/internal/epc/arbiter"
	"sgxpreload/internal/mem"
)

// FuzzEngine feeds arbitrary byte-derived traces through every scheme: no
// panic, exact access conservation, monotone time, the pull-based
// iterator path produces the identical Result, and stepped or barriered
// two-enclave runs equal Drain's.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1))
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{9, 9, 9, 9, 200, 201, 202}, uint8(4))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint8(0x80|7))
	f.Fuzz(func(t *testing.T, data []byte, schemeSel uint8) {
		if len(data) > 512 {
			data = data[:512]
		}
		const pages = 300
		trace := make([]mem.Access, 0, len(data))
		for i, b := range data {
			trace = append(trace, mem.Access{
				Site:    mem.SiteID(b % 7),
				Page:    mem.PageID(uint64(b) * uint64(i+1) % pages),
				Compute: uint64(b) * 100,
			})
		}
		scheme := Scheme(int(schemeSel) % 5)
		platform := SharedConfig{EPCPages: 1 + int(schemeSel)%64}
		res, err := solo(Enclave{Trace: trace, Pages: pages, Scheme: scheme}, platform)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accesses != uint64(len(trace)) {
			t.Fatalf("accesses %d != %d", res.Accesses, len(trace))
		}
		if res.Hits+res.Kernel.DemandFaults != res.Accesses {
			t.Fatalf("conservation violated: %d + %d != %d",
				res.Hits, res.Kernel.DemandFaults, res.Accesses)
		}
		if res.Cycles < res.ComputeCycles {
			t.Fatalf("cycles %d < compute %d", res.Cycles, res.ComputeCycles)
		}
		streamed, err := solo(Enclave{Stream: funcStream(trace), Pages: pages, Scheme: scheme}, platform)
		if err != nil {
			t.Fatal(err)
		}
		if streamed != res {
			t.Fatalf("iterator path diverges from slice path:\n  slice  %+v\n  stream %+v",
				res, streamed)
		}

		// A two-enclave shared run under a byte-derived quota policy,
		// driven Step by Step or, when schemeSel's top bit is set, by
		// RunUntil to byte-derived barriers: the EPC's invariants and
		// checkOwnership (each enclave's resident count is the number of
		// its range's pages present, and the counts sum to the EPC's)
		// must hold after every step or barrier, conservation per
		// enclave, and the Results must equal Drain's.
		quota := arbiter.Policy(int(schemeSel) % 4)
		pair := func() *Engine {
			eng, err := New([]Enclave{
				{Name: "a", Trace: trace, Pages: pages, Scheme: scheme},
				{Name: "b", Trace: trace, Pages: pages, Scheme: scheme},
			}, SharedConfig{EPCPages: platform.EPCPages, Quota: quota})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		drained := pair()
		if err := drained.Drain(); err != nil {
			t.Fatal(err)
		}
		eng := pair()
		for i := 0; ; i++ {
			if schemeSel&0x80 != 0 {
				next, ok := eng.NextKey()
				if !ok {
					break
				}
				if err := eng.RunUntil(next + uint64(data[i%len(data)])*500); err != nil {
					t.Fatal(err)
				}
			} else {
				more, err := eng.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !more {
					break
				}
			}
			if err := eng.shared.CheckInvariants(); err != nil {
				t.Fatalf("quota %v: %v", quota, err)
			}
			if err := checkOwnership(eng); err != nil {
				t.Fatalf("quota %v: %v", quota, err)
			}
		}
		for _, r := range eng.Results() {
			if r.Hits+r.Kernel.DemandFaults != r.Accesses {
				t.Fatalf("quota %v: enclave %s conservation violated: %d + %d != %d",
					quota, r.Name, r.Hits, r.Kernel.DemandFaults, r.Accesses)
			}
		}
		if got, want := fmt.Sprintf("%#v", eng.Results()), fmt.Sprintf("%#v", drained.Results()); got != want {
			t.Fatalf("quota %v: stepped Results diverge from Drain:\n  got  %.300s\n  want %.300s", quota, got, want)
		}
	})
}
