package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop request: when it was due, how late it
// started (lag) and how long it took from its due time (latency), so a
// stall also charges the requests queued behind it.
type sample struct {
	due     time.Duration
	lag     time.Duration
	latency time.Duration
	err     error
}

// openLoop issues request i at offset dues[i] after the start, through
// at most conns concurrent senders. Senders take requests in due
// order and never send early; when all are busy a due request waits,
// and that wait counts in its latency. send performs request i.
func openLoop(ctx context.Context, dues []time.Duration, conns int,
	send func(ctx context.Context, i int) error) []sample {
	out := make([]sample, len(dues))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				if wait := dues[i] - time.Since(start); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				began := time.Since(start)
				err := send(ctx, i)
				out[i] = sample{due: dues[i], lag: began - dues[i], latency: time.Since(start) - dues[i], err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// evenDues spaces n requests at a constant rate (requests per second).
func evenDues(n int, rate float64) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return d
}
