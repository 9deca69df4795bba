package experiments

import (
	"fmt"

	"sgxpreload/internal/pool"
)

// The sweep scheduler. Every experiment is a grid of independent
// (workload, config) cells; the scheduler fans the cells of one sweep out
// across a bounded worker pool and stores each result by cell index, so
// the assembled tables and figures are byte-identical at any worker
// count — completion order never leaks into the output.

// Progress is a per-cell completion callback: done cells out of total in
// the current sweep, plus a human-readable cell label. The Runner
// serializes calls, so implementations need no locking of their own.
type Progress func(done, total int, label string)

// sweep runs fn over items on the runner's worker pool (pool.Run) and
// returns the results in item order, reporting each completed item
// (labelled "name item") through the runner's progress callback. Once
// any item fails no new items start, and the lowest-index item's error is
// returned — the same error a sequential loop would have surfaced first.
// An empty sweep returns (nil, nil).
func sweep[E, T any](r *Runner, name string, items []E, fn func(E) (T, error)) ([]T, error) {
	if len(items) == 0 {
		return nil, nil
	}
	out := make([]T, len(items))
	var done int // guarded by r.progressMu
	if err := pool.Run(r.workers, len(items), func(i int) error {
		v, err := fn(items[i])
		if err != nil {
			return err
		}
		out[i] = v
		if r.progress != nil {
			r.progressMu.Lock()
			defer r.progressMu.Unlock()
			done++
			r.progress(done, len(items), fmt.Sprint(name, " ", items[i]))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
