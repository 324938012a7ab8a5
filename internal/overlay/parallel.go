package overlay

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelFor runs fn(worker, i) for every i in [0, n) across at most
// workers goroutines (one or fewer workers runs inline); worker, in
// [0, workers), lets fn use per-worker scratch. Indices are handed out
// dynamically; callers get determinism by writing only to slot i of
// pre-sized slices and reducing in index order afterwards — the same
// contract as core's engine. Cancelling ctx stops handing out new
// indices; in-flight items finish first.
func parallelFor(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// autoWorkers resolves the Concurrency knob: 0 means one worker per
// available CPU, anything positive is taken literally.
func autoWorkers(concurrency int) int {
	if concurrency > 0 {
		return concurrency
	}
	return runtime.GOMAXPROCS(0)
}
