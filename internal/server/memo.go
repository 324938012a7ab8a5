package server

import (
	"context"
	"errors"
	"sync"
)

// errPanicked is what a memo hands the waiters of a computation that
// panicked. They get an error rather than a retry, so a computation
// that panics deterministically is not rerun in a loop.
var errPanicked = errors.New("memoized computation panicked")

// memo computes each key's value once and shares it with every caller.
// Distinct keys compute concurrently. The caller that finds a key
// absent computes it under its own context; a computation that fails
// after that context has ended (its caller disconnected or hit its
// deadline) is forgotten, so a waiter whose context is still live
// retries as the new owner. A waiter whose own context ends stops
// waiting and returns ctx.Err(). The zero value is ready to use.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*memoCall[V]
}

// memoCall is one key's computation; done closes when val, err and
// abandoned are published.
type memoCall[V any] struct {
	done chan struct{}
	val  V
	err  error
	// abandoned reports that the computation failed because its owner's
	// context ended: the key was forgotten and waiters should retry.
	abandoned bool
}

// do returns key's value, computing it with compute(ctx) if no caller
// has yet.
func (m *memo[K, V]) do(ctx context.Context, key K, compute func(context.Context) (V, error)) (V, error) {
	for {
		m.mu.Lock()
		c, ok := m.calls[key]
		if !ok {
			if m.calls == nil {
				m.calls = map[K]*memoCall[V]{}
			}
			c = &memoCall[V]{done: make(chan struct{})}
			m.calls[key] = c
			m.mu.Unlock()
			m.run(ctx, key, c, compute)
			return c.val, c.err
		}
		m.mu.Unlock()
		select {
		case <-c.done:
			if c.abandoned && ctx.Err() == nil {
				continue // the owner's context ended; retry as owner
			}
			return c.val, c.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
}

// run computes c as its key's owner. It publishes from a defer, so a
// panicking compute still forgets the key and releases its waiters
// (with errPanicked) before the panic continues up the owner's stack.
func (m *memo[K, V]) run(ctx context.Context, key K, c *memoCall[V], compute func(context.Context) (V, error)) {
	returned := false
	defer func() {
		if !returned {
			c.err = errPanicked
		}
		c.abandoned = returned && c.err != nil && ctx.Err() != nil
		if !returned || c.abandoned {
			m.mu.Lock()
			delete(m.calls, key)
			m.mu.Unlock()
		}
		close(c.done)
	}()
	c.val, c.err = compute(ctx)
	returned = true
}
