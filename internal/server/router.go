package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pathsel/internal/experiments"
	"pathsel/internal/obs"
	"pathsel/internal/shard"
)

// routerWorker is one backend in the fleet: its base URL, liveness as
// last observed by the health checker, and its per-worker metrics.
type routerWorker struct {
	base string
	up   atomic.Bool

	forwards *obs.Counter
	errors   *obs.Counter
	upGauge  *obs.Gauge
}

// router consistent-hashes the (seed, preset) suite keyspace over a
// fixed set of worker processes: every configuration has one owner, so
// each suite is built and cached on exactly one worker and the fleet's
// aggregate cache capacity scales with its size. Requests are
// forwarded with bounded retries along the ring's successor order, so
// a dead worker degrades only its own shard (those keys remap to the
// successor) instead of the whole service.
type Router struct {
	defaults experiments.Config
	client   *http.Client
	retries  int

	mu      sync.Mutex
	ring    *shard.Ring
	workers map[string]*routerWorker

	reg *obs.Registry
	mux *http.ServeMux

	forwardLatency *obs.Histogram
	retried        *obs.Counter
	unavailable    *obs.Counter
	truncated      *obs.Counter
}

// NewRouter wires a router over the given worker base URLs. Workers
// start optimistically healthy; the health loop (or an explicit
// CheckAll) downgrades them.
func NewRouter(backends []string, defaults experiments.Config, retries int, reg *obs.Registry) *Router {
	rt := &Router{
		defaults: defaults,
		client:   &http.Client{}, // per-request contexts bound the forwards
		retries:  retries,
		ring:     shard.New(0),
		workers:  map[string]*routerWorker{},
		reg:      reg,
		mux:      http.NewServeMux(),
		forwardLatency: reg.Histogram("router_forward_duration_seconds",
			"Wall-clock latency of forwarded requests, as seen by the router."),
		retried: reg.Counter("router_retries_total",
			"Forward attempts retried on a ring successor after a worker failure."),
		unavailable: reg.Counter("router_unavailable_total",
			"Requests failed because no healthy worker could serve them."),
		truncated: reg.Counter("router_truncated_total",
			"Forwarded responses aborted because their body could not be relayed in full."),
	}
	for _, base := range backends {
		w := &routerWorker{
			base: base,
			forwards: reg.Counter("router_worker_forwards_total",
				"Requests forwarded to this worker.", "worker", base),
			errors: reg.Counter("router_worker_errors_total",
				"Forward attempts to this worker that failed (transport error or retryable status).", "worker", base),
			upGauge: reg.Gauge("router_worker_up",
				"1 when the worker's last health check succeeded.", "worker", base),
		}
		w.up.Store(true)
		w.upGauge.Set(1)
		rt.workers[base] = w
		rt.ring.Add(base)
	}
	rt.mux.HandleFunc("GET /{$}", rt.index)
	rt.mux.HandleFunc("GET /api/suites", rt.suites)
	rt.mux.HandleFunc("GET /api/workers", rt.workerStatus)
	rt.mux.HandleFunc("GET /api/", rt.forward)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	rt.mux.Handle("GET /metrics", reg.Handler())
	return rt
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// candidatesFor returns the forward order for a configuration: the
// ring owner and enough successors to cover the retry budget, healthy
// workers first. Unhealthy workers stay in the list as a last resort —
// a stale health verdict should degrade to a slow error, not mask a
// live worker.
func (rt *Router) candidatesFor(cfg experiments.Config) []*routerWorker {
	rt.mu.Lock()
	names := rt.ring.Lookup(shard.Key(cfg.Seed, cfg.Preset.String()), 1+rt.retries)
	out := make([]*routerWorker, 0, len(names))
	down := make([]*routerWorker, 0, len(names))
	for _, n := range names {
		w := rt.workers[n]
		if w == nil {
			continue
		}
		if w.up.Load() {
			out = append(out, w)
		} else {
			down = append(down, w)
		}
	}
	rt.mu.Unlock()
	return append(out, down...)
}

// retryableStatus reports whether a worker response indicates the
// worker (not the request) is the problem, so a ring successor may
// fare better. 429 is the worker's admission control saturating; 5xx
// gateway-class statuses are infrastructure failures. A plain 500 is a
// deterministic compute error — every worker would fail the same way,
// so it is passed through.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// forward proxies an API request to the owner of its suite
// configuration, retrying along the ring on worker failure. Response
// bodies are streamed (copyResponse), so large figure payloads flow
// incrementally instead of buffering in the router.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request) {
	cfg, err := suiteConfigFrom(rt.defaults, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	candidates := rt.candidatesFor(cfg)
	if len(candidates) == 0 {
		rt.unavailable.Inc()
		http.Error(w, "no workers configured", http.StatusServiceUnavailable)
		return
	}
	start := time.Now()
	var lastErr error
	for i, wk := range candidates {
		if i > 0 {
			rt.retried.Inc()
		}
		resp, err := rt.tryWorker(r, wk)
		if err != nil {
			wk.errors.Inc()
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) && i < len(candidates)-1 {
			wk.errors.Inc()
			lastErr = fmt.Errorf("worker %s: status %d", wk.base, resp.StatusCode)
			resp.Body.Close()
			continue
		}
		wk.forwards.Inc()
		rt.forwardLatency.Observe(time.Since(start).Seconds())
		if err := copyResponse(w, resp, wk.base); err != nil {
			// The status line is already out: drop the connection so the
			// client sees a broken response, not a short one.
			rt.truncated.Inc()
			panic(http.ErrAbortHandler)
		}
		return
	}
	rt.unavailable.Inc()
	http.Error(w, fmt.Sprintf("all workers failed for seed %d preset %s: %v", cfg.Seed, cfg.Preset, lastErr),
		http.StatusBadGateway)
}

// tryWorker issues the forwarded request to one worker, bounded by the
// client's context.
func (rt *Router) tryWorker(r *http.Request, wk *routerWorker) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, wk.base+r.URL.RequestURI(), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", r.Header.Get("Accept"))
	return rt.client.Do(req)
}

// copyBufs holds the buffers copyResponse streams bodies through. It
// writes through obs.Instrument's status writer, which hides the
// connection's io.ReaderFrom, so io.Copy would allocate a fresh 32 KB
// buffer for every proxied request.
var copyBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// copyResponse relays a worker response to the client, tagging which
// worker served it. It returns the body copy's error: a worker that
// fails mid-body, or a client that goes away.
func copyResponse(w http.ResponseWriter, resp *http.Response, worker string) error {
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("X-Pathsel-Worker", worker)
	w.WriteHeader(resp.StatusCode)
	buf := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(buf)
	_, err := io.CopyBuffer(w, resp.Body, *buf)
	return err
}

// workerRow is one row of the /api/workers status report.
type workerRow struct {
	Worker string `json:"worker"`
	Up     bool   `json:"up"`
}

func (rt *Router) workerList() []*routerWorker {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*routerWorker, 0, len(rt.workers))
	for _, name := range rt.ring.Nodes() {
		out = append(out, rt.workers[name])
	}
	return out
}

func (rt *Router) workerStatus(w http.ResponseWriter, _ *http.Request) {
	rows := []workerRow{}
	for _, wk := range rt.workerList() {
		rows = append(rows, workerRow{Worker: wk.base, Up: wk.up.Load()})
	}
	writeJSON(w, rows)
}

// routedSuiteStatus is a worker's cache row annotated with its owner.
type routedSuiteStatus struct {
	suiteStatus
	Worker string `json:"worker"`
}

// suites fans out to every worker and merges the cache reports, so one
// request shows where each suite lives in the fleet.
func (rt *Router) suites(w http.ResponseWriter, r *http.Request) {
	rows := []routedSuiteStatus{}
	for _, wk := range rt.workerList() {
		resp, err := rt.tryWorker(r, wk)
		if err != nil || resp.StatusCode != http.StatusOK {
			if err == nil {
				resp.Body.Close()
			}
			continue
		}
		var local []suiteStatus
		err = json.NewDecoder(resp.Body).Decode(&local)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, st := range local {
			rows = append(rows, routedSuiteStatus{suiteStatus: st, Worker: wk.base})
		}
	}
	writeJSON(w, rows)
}

func (rt *Router) index(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<!DOCTYPE html>\n<html><head><title>pathsel router</title></head><body>\n")
	fmt.Fprintf(w, "<h1>pathsel shard router</h1>\n<p>Default suite: %s preset, seed %d. ", rt.defaults.Preset, rt.defaults.Seed)
	fmt.Fprintf(w, "API requests are consistent-hashed over the workers by (seed, preset).</p>\n<ul>\n")
	for _, wk := range rt.workerList() {
		state := "down"
		if wk.up.Load() {
			state = "up"
		}
		fmt.Fprintf(w, "<li>%s — %s</li>\n", wk.base, state)
	}
	fmt.Fprintf(w, "</ul>\n<p><a href=\"/api/suites\">fleet suites</a> · <a href=\"/api/workers\">workers</a> · <a href=\"/metrics\">metrics</a></p>\n</body></html>\n")
}

// CheckAll probes every worker's /healthz once and updates liveness.
func (rt *Router) CheckAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, wk := range rt.workerList() {
		wg.Add(1)
		go func(wk *routerWorker) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			up := false
			req, err := http.NewRequestWithContext(cctx, http.MethodGet, wk.base+"/healthz", nil)
			if err == nil {
				resp, err := rt.client.Do(req)
				if err == nil {
					up = resp.StatusCode == http.StatusOK
					resp.Body.Close()
				}
			}
			wk.up.Store(up)
			if up {
				wk.upGauge.Set(1)
			} else {
				wk.upGauge.Set(0)
			}
		}(wk)
	}
	wg.Wait()
}

// HealthLoop re-probes workers until ctx is cancelled.
func (rt *Router) HealthLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.CheckAll(ctx)
		}
	}
}
