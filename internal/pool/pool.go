// Package pool is the repository's one bounded worker pool: index
// dispatch over a fixed task count with deterministic error reporting.
// The experiment runner's sweeps, sgxsim's -compare fan-out and the
// fleet's between-barrier host advancement all run on it.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run calls fn(i) for every i in [0, n) on up to workers goroutines;
// workers <= 0 means GOMAXPROCS. Indices are dispatched in order, and
// once any call fails no new index starts. The returned error is the
// lowest-index failure — exactly the error a sequential loop would have
// surfaced first — so the worker count never changes what a caller sees.
func Run(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Indices are dispatched contiguously from zero, so when a failure
	// stops the pool every index below the failing one has completed:
	// the lowest-index error here is the first a sequential loop would
	// have hit.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
