package fanout

import (
	"context"
	"errors"
	"testing"
)

func TestParallelFor(t *testing.T) {
	// Every index runs exactly once.
	n := 1000
	hits := make([]int32, n)
	if err := For(context.Background(), 7, n, func(_, i int) error {
		hits[i]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}

	// The lowest failing index wins even when it fails last: index 3
	// returns only after index 5 has failed.
	errLow, errHigh := errors.New("low"), errors.New("high")
	highDone := make(chan struct{})
	err := For(context.Background(), 7, n, func(_, i int) error {
		switch i {
		case 3:
			<-highDone
			return errLow
		case 5:
			close(highDone)
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("got %v, want the lowest-index error %v", err, errLow)
	}

	// Sequential fallback (workers<=1) runs inline as worker 0 and
	// stops at the first error.
	ran := 0
	err = For(context.Background(), 1, 5, func(w, i int) error {
		if w != 0 {
			t.Fatalf("sequential worker id %d", w)
		}
		ran++
		if i == 2 {
			return errLow
		}
		return nil
	})
	if !errors.Is(err, errLow) || ran != 3 {
		t.Fatalf("sequential: err %v after %d items, want %v after 3", err, ran, errLow)
	}
}

// TestParallelForCancellation: a cancelled context stops the loop and
// surfaces context.Canceled, in both parallel and sequential modes.
func TestParallelForCancellation(t *testing.T) {
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 7} {
		err := For(pre, workers, 1000, func(_, i int) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d pre-cancelled: err %v", workers, err)
		}
	}

	// Sequential mode cancelled mid-loop: exactly one iteration runs
	// (the check precedes each index, and cancel fires inside the first).
	ctx, cancelMid := context.WithCancel(context.Background())
	ran := 0
	err := For(ctx, 1, 1000, func(_, i int) error {
		ran++
		cancelMid()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-loop cancel: err %v", err)
	}
	if ran != 1 {
		t.Fatalf("sequential ran %d iterations after cancel, want 1", ran)
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want at least one", got)
	}
}

// BenchmarkFor measures the fixed cost of one fan-out, which callers
// such as the overlay harness pay several times per simulated tick.
func BenchmarkFor(b *testing.B) {
	out := make([]int, 64)
	fn := func(_, i int) error {
		out[i] = i
		return nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := For(context.Background(), 2, len(out), fn); err != nil {
			b.Fatal(err)
		}
	}
}
