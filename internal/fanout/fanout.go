// Package fanout is the worker fan-out shared by the deterministic
// engines (core's pair searches, the overlay harness, the packet-level
// validation): indices are handed out dynamically to a bounded set of
// goroutines, and determinism comes from the callers, which write only
// to slot i of pre-sized slices and key mutable scratch off the worker
// number.
package fanout

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(worker, i) for every i in [0, n) across at most workers
// goroutines (clamped to n; one or fewer workers runs inline with no
// goroutines). worker is in [0, workers) and unique among concurrently
// running calls, so fn may use per-worker scratch. The first failure
// stops the hand-out of further indices, and the error of the lowest
// failing index among those run is returned, not the first to fail.
// Cancelling ctx also stops the hand-out and returns ctx's error;
// in-flight items finish first.
func For(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	f := &fan{fn: fn, n: n, firstIdx: n}
	f.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go f.work(ctx, w)
	}
	f.wg.Wait()
	if f.firstErr != nil {
		return f.firstErr
	}
	return ctx.Err()
}

// fan is the state one parallel For call shares across its workers,
// kept in one allocation because some callers fan out several times
// per simulated tick.
type fan struct {
	fn     func(worker, i int) error
	n      int
	next   atomic.Int64
	failed atomic.Bool
	wg     sync.WaitGroup

	mu       sync.Mutex // guards firstIdx and firstErr
	firstIdx int
	firstErr error
}

// work runs indices as worker w until they run out, one fails, or ctx
// is cancelled.
func (f *fan) work(ctx context.Context, w int) {
	defer f.wg.Done()
	for {
		i := int(f.next.Add(1)) - 1
		if i >= f.n || f.failed.Load() || ctx.Err() != nil {
			return
		}
		if err := f.fn(w, i); err != nil {
			f.mu.Lock()
			if i < f.firstIdx {
				f.firstIdx, f.firstErr = i, err
			}
			f.mu.Unlock()
			f.failed.Store(true)
		}
	}
}

// Workers resolves a Concurrency knob: 0 means one worker per
// available CPU, anything positive is taken literally.
func Workers(concurrency int) int {
	if concurrency > 0 {
		return concurrency
	}
	return runtime.GOMAXPROCS(0)
}
