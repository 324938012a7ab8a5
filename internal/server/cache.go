package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"pathsel/internal/experiments"
)

// errBusy is returned when the cache would need to start a new suite
// build but the configured build concurrency is saturated; the HTTP
// layer maps it to 429 with a Retry-After header.
var errBusy = errors.New("suite build capacity saturated; retry later")

// suiteKey identifies one cached configuration. Concurrency is
// deliberately excluded: it changes wall-clock time, never results, so
// all worker settings share one cache slot.
type suiteKey struct {
	seed   int64
	preset experiments.Preset
}

// suiteEntry is one cache slot: either an in-flight build (ready open)
// or a completed one (ready closed, suite/err set). Completed entries
// also memoize every exhibit computed on the suite, so repeated
// requests against a cached suite are cheap while distinct exhibits
// still compute concurrently.
type suiteEntry struct {
	cfg experiments.Config

	ready chan struct{} // closed when the build finishes
	suite *experiments.Suite
	err   error

	// waiters and cancel are guarded by the cache mutex: every request
	// waiting on this entry holds one reference, and when the last
	// waiter disconnects before the build completes, the build context
	// is cancelled.
	waiters int
	cancel  context.CancelFunc

	// results holds the suite's exhibits (tables, figure curves,
	// extension results), keyed by the name the handler gives each.
	results memo[string, any]
}

// BuildFunc builds a suite; production wires experiments.BuildContext,
// tests substitute fakes.
type BuildFunc func(context.Context, experiments.Config) (*experiments.Suite, error)

// SuiteCache is a size-bounded LRU of built suites with singleflight
// deduplication and admission control. Concurrent requests for the
// same configuration share one build; requests for distinct
// configurations build concurrently up to maxBuilds, beyond which new
// configurations are rejected with errBusy. Completed suites are
// evicted least-recently-used once more than max are resident, so
// memory stays bounded no matter how many seeds are explored.
type SuiteCache struct {
	build       BuildFunc
	concurrency int // analysis workers stamped into every config

	mu       sync.Mutex
	max      int
	maxBuild int
	building int
	entries  map[suiteKey]*suiteEntry
	order    []suiteKey // least-recently-used first

	metrics *Metrics
}

// NewSuiteCache builds a cache holding up to max completed suites and
// running up to maxBuild concurrent builds.
func NewSuiteCache(max, maxBuild, concurrency int, build BuildFunc, m *Metrics) *SuiteCache {
	if max < 1 {
		max = 1
	}
	if maxBuild < 1 {
		maxBuild = 1
	}
	return &SuiteCache{
		build:       build,
		concurrency: concurrency,
		max:         max,
		maxBuild:    maxBuild,
		entries:     map[suiteKey]*suiteEntry{},
		metrics:     m,
	}
}

// Get returns the entry for cfg, building it on demand. The returned
// entry's build has completed successfully (entry.suite is usable).
// Cancelling ctx abandons the wait; if that makes the waiter count
// reach zero the in-flight build itself is cancelled.
func (c *SuiteCache) Get(ctx context.Context, cfg experiments.Config) (*suiteEntry, error) {
	cfg.Concurrency = c.concurrency
	key := suiteKey{seed: cfg.Seed, preset: cfg.Preset}
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			select {
			case <-e.ready:
				// Completed entry: a pure cache hit.
				c.touchLocked(key)
				c.metrics.cacheHits.Inc()
				c.mu.Unlock()
				return e, e.err
			default:
			}
			// In-flight build: join it instead of starting another.
			e.waiters++
			c.metrics.cacheDedup.Inc()
			c.mu.Unlock()
			entry, err := c.wait(ctx, e)
			if err != nil && errors.Is(err, context.Canceled) && ctx.Err() == nil {
				// The build we joined was cancelled by its other waiters
				// disconnecting, but our client is still here: retry.
				continue
			}
			return entry, err
		}
		// Miss: admission control before starting a build.
		if c.building >= c.maxBuild {
			c.metrics.buildsRejected.Inc()
			c.mu.Unlock()
			return nil, errBusy
		}
		// A build is shared by every waiter, so it must outlive any single
		// requester's context; the waiter refcount cancels it when the
		// last client disconnects.
		//repolint:allow ctxflow -- deliberate detach, cancellation handled by waiter refcounting
		bctx, cancel := context.WithCancel(context.Background())
		e := &suiteEntry{
			cfg:     cfg,
			ready:   make(chan struct{}),
			cancel:  cancel,
			waiters: 1,
		}
		c.entries[key] = e
		c.order = append(c.order, key)
		c.building++
		c.metrics.cacheMisses.Inc()
		c.metrics.buildsInflight.Inc()
		c.metrics.cacheEntries.Set(int64(len(c.entries)))
		c.mu.Unlock()
		go c.run(bctx, key, e)
		return c.wait(ctx, e)
	}
}

// run executes the build on its own goroutine (detached from any one
// request) and publishes the result.
func (c *SuiteCache) run(ctx context.Context, key suiteKey, e *suiteEntry) {
	start := time.Now()
	suite, err := c.build(ctx, e.cfg)
	e.suite, e.err = suite, err

	c.mu.Lock()
	close(e.ready)
	c.building--
	c.metrics.buildsInflight.Dec()
	if err != nil {
		// Failed (or cancelled) builds are not cached: drop the entry so
		// the next request retries cleanly.
		c.removeLocked(key)
		if errors.Is(err, context.Canceled) {
			c.metrics.buildsCancelled.Inc()
		}
	} else {
		c.metrics.buildDuration.Observe(time.Since(start).Seconds())
		c.evictLocked()
	}
	c.metrics.cacheEntries.Set(int64(len(c.entries)))
	c.mu.Unlock()
	e.cancel() // release the context's resources
}

// wait blocks until the entry is ready or ctx is cancelled, keeping the
// waiter refcount accurate either way.
func (c *SuiteCache) wait(ctx context.Context, e *suiteEntry) (*suiteEntry, error) {
	select {
	case <-e.ready:
		c.mu.Lock()
		e.waiters--
		c.mu.Unlock()
		return e, e.err
	case <-ctx.Done():
		c.mu.Lock()
		e.waiters--
		if e.waiters == 0 {
			select {
			case <-e.ready:
				// Build finished in the meantime; keep the result.
			default:
				// Every client interested in this configuration has
				// disconnected: abort the build.
				e.cancel()
			}
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// touchLocked marks a key most-recently-used.
func (c *SuiteCache) touchLocked(key suiteKey) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
}

// removeLocked drops a key from the map and LRU order.
func (c *SuiteCache) removeLocked(key suiteKey) {
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// evictLocked enforces the size bound over completed entries, oldest
// first. In-flight builds are never evicted (their waiters hold them).
func (c *SuiteCache) evictLocked() {
	ready := 0
	for _, e := range c.entries {
		select {
		case <-e.ready:
			ready++
		default:
		}
	}
	for i := 0; ready > c.max && i < len(c.order); {
		key := c.order[i]
		e := c.entries[key]
		select {
		case <-e.ready:
			c.removeLocked(key)
			c.metrics.cacheEvictions.Inc()
			ready--
			// order shifted left; re-examine index i.
		default:
			i++
		}
	}
}

// snapshot lists the cached configurations (for the index page),
// most-recently-used last, marking in-flight builds.
func (c *SuiteCache) snapshot() []suiteStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]suiteStatus, 0, len(c.order))
	for _, key := range c.order {
		e := c.entries[key]
		st := suiteStatus{Seed: key.seed, Preset: key.preset.String()}
		select {
		case <-e.ready:
			st.State = "ready"
		default:
			st.State = "building"
		}
		out = append(out, st)
	}
	return out
}

// suiteStatus is one row of the cache snapshot.
type suiteStatus struct {
	Seed   int64  `json:"seed"`
	Preset string `json:"preset"`
	State  string `json:"state"`
}
