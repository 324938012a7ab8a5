package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitSpy is a context that reports when a memo waiter starts waiting
// on it: memo.do reads Done only while blocked on another caller's
// computation, so the first Done call means the caller has joined.
type waitSpy struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func newWaitSpy(ctx context.Context) *waitSpy {
	return &waitSpy{Context: ctx, joined: make(chan struct{})}
}

func (c *waitSpy) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
}

func TestMemoComputesOncePerKey(t *testing.T) {
	var m memo[string, int]
	var calls atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	compute := func(context.Context) (int, error) {
		if calls.Add(1) == 1 {
			close(started)
		}
		<-release
		return 42, nil
	}
	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.do(context.Background(), "k", compute)
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}()
	}
	<-started
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("computed %d times, want once", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
}

func TestMemoDistinctKeysComputeConcurrently(t *testing.T) {
	var m memo[int, int]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	started := []chan struct{}{make(chan struct{}), make(chan struct{})}
	// Each key's computation finishes only once the other's has started,
	// so a memo that serialized distinct keys would never return.
	compute := func(self, other int) func(context.Context) (int, error) {
		return func(ctx context.Context) (int, error) {
			close(started[self])
			select {
			case <-started[other]:
				return self, nil
			case <-ctx.Done():
				return 0, errors.New("keys computed one after the other")
			}
		}
	}
	var wg sync.WaitGroup
	for k := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := m.do(ctx, k, compute(k, 1-k)); err != nil || v != k {
				t.Errorf("key %d: got %d, %v", k, v, err)
			}
		}()
	}
	wg.Wait()
}

func TestMemoCancelledOwnerHandsOverToWaiter(t *testing.T) {
	var m memo[string, int]
	var calls atomic.Int32
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	started := make(chan struct{})
	ownerDone := make(chan error)
	go func() {
		_, err := m.do(ownerCtx, "k", func(ctx context.Context) (int, error) {
			calls.Add(1)
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		})
		ownerDone <- err
	}()
	<-started

	waiterCtx := newWaitSpy(context.Background())
	waiterDone := make(chan int)
	go func() {
		v, err := m.do(waiterCtx, "k", func(context.Context) (int, error) {
			calls.Add(1)
			return 7, nil
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiterDone <- v
	}()
	<-waiterCtx.joined
	cancelOwner()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Errorf("owner got %v, want context.Canceled", err)
	}
	if v := <-waiterDone; v != 7 {
		t.Errorf("waiter got %d, want its own recomputed 7", v)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("computed %d times, want 2 (owner, then the waiter as new owner)", got)
	}
	// The waiter's result is now the memoized one.
	if v, _ := m.do(context.Background(), "k", func(context.Context) (int, error) {
		t.Error("recomputed a memoized key")
		return 0, nil
	}); v != 7 {
		t.Errorf("memoized value %d, want 7", v)
	}
}

func TestMemoTimedOutOwnerHandsOverToWaiter(t *testing.T) {
	var m memo[string, int]
	var calls atomic.Int32
	// The owner's deadline is real, but its computation does not return
	// before the waiter has joined, whenever the deadline fires.
	ownerCtx, cancelOwner := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancelOwner()
	started, release := make(chan struct{}), make(chan struct{})
	ownerDone := make(chan error)
	go func() {
		_, err := m.do(ownerCtx, "k", func(ctx context.Context) (int, error) {
			calls.Add(1)
			close(started)
			<-release
			<-ctx.Done()
			return 0, ctx.Err()
		})
		ownerDone <- err
	}()
	<-started

	waiterCtx := newWaitSpy(context.Background())
	waiterDone := make(chan int)
	go func() {
		v, err := m.do(waiterCtx, "k", func(context.Context) (int, error) {
			calls.Add(1)
			return 7, nil
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiterDone <- v
	}()
	<-waiterCtx.joined
	close(release)
	if err := <-ownerDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("owner got %v, want context.DeadlineExceeded", err)
	}
	if v := <-waiterDone; v != 7 {
		t.Errorf("waiter got %d, want its own recomputed 7", v)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("computed %d times, want 2 (owner, then the waiter as new owner)", got)
	}
	// The deadline did not poison the key: the waiter's value is memoized.
	if v, err := m.do(context.Background(), "k", func(context.Context) (int, error) {
		t.Error("recomputed a memoized key")
		return 0, nil
	}); err != nil || v != 7 {
		t.Errorf("memoized %d, %v, want 7", v, err)
	}
}

func TestMemoWaiterCancelReturnsCtxErr(t *testing.T) {
	var m memo[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	ownerDone := make(chan int)
	go func() {
		v, err := m.do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 9, nil
		})
		if err != nil {
			t.Errorf("owner: %v", err)
		}
		ownerDone <- v
	}()
	<-started

	base, cancelWaiter := context.WithCancel(context.Background())
	waiterCtx := newWaitSpy(base)
	waiterDone := make(chan error)
	go func() {
		_, err := m.do(waiterCtx, "k", func(context.Context) (int, error) {
			t.Error("a waiter computed a key in flight")
			return 0, nil
		})
		waiterDone <- err
	}()
	<-waiterCtx.joined
	cancelWaiter()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter got %v, want context.Canceled", err)
	}
	close(release)
	if v := <-ownerDone; v != 9 {
		t.Errorf("owner got %d, want 9", v)
	}
}

func TestMemoPanicReleasesWaitersAndForgetsKey(t *testing.T) {
	var m memo[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		m.do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started

	waiterCtx := newWaitSpy(context.Background())
	waiterDone := make(chan error)
	go func() {
		_, err := m.do(waiterCtx, "k", func(context.Context) (int, error) {
			t.Error("a waiter retried a panicked computation")
			return 0, nil
		})
		waiterDone <- err
	}()
	<-waiterCtx.joined
	close(release)
	if r := <-recovered; r != "boom" {
		t.Errorf("owner recovered %v, want the panic to propagate", r)
	}
	if err := <-waiterDone; !errors.Is(err, errPanicked) {
		t.Errorf("waiter got %v, want errPanicked", err)
	}
	// The slot was forgotten: the next caller computes afresh.
	v, err := m.do(context.Background(), "k", func(context.Context) (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Errorf("after a panic: got %d, %v, want a fresh 3", v, err)
	}
}
