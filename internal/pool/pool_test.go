package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var hits [100]atomic.Int32
		if err := Run(workers, len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
	if err := Run(4, 0, func(int) error { t.Fatal("called with n = 0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestLowestIndexError(t *testing.T) {
	// Every index from 5 up fails with an index-tagged error. Dispatch is
	// contiguous from zero, so regardless of completion order the caller
	// must see index 5's error — the one a sequential loop would hit first.
	for _, workers := range []int{1, 4} {
		err := Run(workers, 50, func(i int) error {
			if i >= 5 {
				return fmt.Errorf("index %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 5 failed" {
			t.Fatalf("workers=%d: err = %v, want index 5's error", workers, err)
		}
	}
}

func TestSequentialStopsEarly(t *testing.T) {
	calls := 0
	sentinel := errors.New("boom")
	err := Run(1, 100, func(i int) error {
		calls++
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 3 {
		t.Fatalf("sequential run made %d calls after failure at index 2, want 3", calls)
	}
}

// TestOutOfOrderFailure forces a higher index to fail long before a
// lower index (already claimed by a worker) reports its own error:
// index 0 fails late, index 3 at once. The lowest-index error must win
// at every worker count — the result a sequential loop would have
// surfaced — even though index 3's failure stops dispatch while index 0
// is still running.
func TestOutOfOrderFailure(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 0} {
		threeFailed := make(chan struct{})
		err := Run(workers, 4, func(i int) error {
			switch i {
			case 0:
				// With a second worker, index 3 fails first; a lone
				// worker never reaches it, so wait with a deadline.
				select {
				case <-threeFailed:
				case <-time.After(100 * time.Millisecond):
				}
				return errors.New("index 0 failed late")
			case 3:
				close(threeFailed)
				return errors.New("index 3 failed at once")
			}
			return nil
		})
		if err == nil || err.Error() != "index 0 failed late" {
			t.Errorf("workers=%d: want index 0's error (the sequential loop's first), got %v", workers, err)
		}
		if workers >= 2 {
			select {
			case <-threeFailed:
			default:
				t.Errorf("workers=%d: index 3 never ran, so the failure order was not exercised", workers)
			}
		}
	}
}
