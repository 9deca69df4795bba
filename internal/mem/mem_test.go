package mem

import "testing"

func TestPageAddr(t *testing.T) {
	if got := PageID(5).Addr(); got != 5*4096 {
		t.Errorf("Addr() = %d, want %d", got, 5*4096)
	}
}

func TestDefaultCostModelMatchesPaper(t *testing.T) {
	cm := DefaultCostModel()
	if cm.AEX != 10000 || cm.Load != 44000 || cm.Eresume != 10000 {
		t.Fatalf("protocol costs = %d/%d/%d, want the paper's 10k/44k/10k",
			cm.AEX, cm.Load, cm.Eresume)
	}
	if got := cm.FaultCost(); got != 64000 {
		t.Fatalf("FaultCost() = %d, want 64000", got)
	}
	if cm.RegularFault != 2000 {
		t.Fatalf("RegularFault = %d, want the paper's 2000", cm.RegularFault)
	}
	if err := cm.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestCostModelValidate(t *testing.T) {
	if err := (CostModel{Hit: 1}).Validate(); err == nil {
		t.Error("zero Load accepted")
	}
	if err := (CostModel{Load: 1}).Validate(); err == nil {
		t.Error("zero Hit accepted")
	}
}

func TestNoPageSentinel(t *testing.T) {
	if NoPage == 0 {
		t.Fatal("NoPage collides with page 0")
	}
}

// countingStream is an endless stream that records how often it is
// pulled and closed.
type countingStream struct{ pulled, closed int }

func (c *countingStream) Next() (Access, bool) {
	c.pulled++
	return Access{Page: PageID(c.pulled)}, true
}

func (c *countingStream) Close() { c.closed++ }

func TestLimitReleasesSourceOnce(t *testing.T) {
	src := &countingStream{}
	lim := Limit(src, 3)
	for i := 0; i < 3; i++ {
		if _, ok := lim.Next(); !ok {
			t.Fatalf("limited stream ended at %d of 3", i)
		}
	}
	if src.closed != 0 {
		t.Fatal("Limit released its source before the cap")
	}
	if _, ok := lim.Next(); ok {
		t.Fatal("limited stream exceeded its cap")
	}
	lim.Next()
	lim.(Closer).Close()
	if src.pulled != 3 || src.closed != 1 {
		t.Fatalf("source pulled %d times and closed %d times, want 3 and 1", src.pulled, src.closed)
	}

	early := &countingStream{}
	lim = Limit(early, 3)
	lim.Next()
	lim.(Closer).Close()
	if _, ok := lim.Next(); ok || early.closed != 1 || early.pulled != 1 {
		t.Fatalf("closed early: pulled %d, closed %d, want 1 and 1 and no more accesses", early.pulled, early.closed)
	}
}
