package kernel

import (
	"testing"

	"sgxpreload/internal/dfp"
	"sgxpreload/internal/mem"
)

// BenchmarkHandleFault measures the full fault-servicing hot path —
// Sync, HandleFault (with prediction and preload queuing), MaybeScan —
// under a DFP kernel driven by a mix of sequential streams (exercising
// predict/QueueBatch/preload starts) and pseudo-random faults
// (exercising batch aborts and evictions), the same mix the simulation
// engine produces.
func BenchmarkHandleFault(b *testing.B) {
	d := dfp.DefaultConfig()
	const elrange = 1 << 20
	k, err := New(Config{
		Costs:        mem.DefaultCostModel(),
		EPCPages:     4096,
		ELRangePages: elrange,
		Predictor:    newDFP(b, d),
		ScanPeriod:   1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	var now uint64
	var seq mem.PageID
	rnd := uint64(0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var p mem.PageID
		if i%4 != 3 {
			p = seq % elrange
			seq++
		} else {
			rnd ^= rnd << 13
			rnd ^= rnd >> 7
			rnd ^= rnd << 17
			p = mem.PageID(rnd % elrange)
		}
		now += 1000
		k.Sync(now)
		if !k.Touch(p) {
			now = k.HandleFault(now, p)
		}
		k.MaybeScan(now)
	}
}
