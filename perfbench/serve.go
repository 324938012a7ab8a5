package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pathsel/internal/experiments"
	"pathsel/internal/obs"
	"pathsel/internal/server"
	"pathsel/internal/shard"
	"pathsel/internal/snapshot"
)

// serveProfile fixes a serve workload's traffic: the suites in play,
// the request mix's zipf skew, the two offered rates, the p99 latency
// limit and the capacity the rates were derived from, where the
// capacity search starts. serve-churn's profile lives in
// definition.json, beside the runs that measured the capacity.
type serveProfile struct {
	Seeds    []int64 `json:"seeds"`
	ZipfS    float64 `json:"zipf_s"`
	Lo       float64 `json:"lo_rps"`
	Hi       float64 `json:"hi_rps"`
	LimitMs  float64 `json:"latency_limit_ms"`
	Capacity float64 `json:"capacity_rps"`
}

//go:embed definition.json
var definitionJSON []byte

var churnProfile = loadChurnProfile()

func loadChurnProfile() serveProfile {
	var def struct {
		Serve map[string]serveProfile `json:"serve"`
	}
	if err := json.Unmarshal(definitionJSON, &def); err != nil {
		panic(fmt.Sprintf("definition.json: %v", err))
	}
	p := def.Serve["serve-churn"]
	if len(p.Seeds) == 0 || p.ZipfS <= 0 || p.Lo <= 0 || p.Hi <= p.Lo || p.LimitMs <= 0 || p.Capacity <= 0 {
		panic(fmt.Sprintf("definition.json: incomplete serve profile %+v", p))
	}
	return p
}

// endpoints are the request templates, hottest first. The cdf entries
// take their series slug from the figure's own response. The overlay
// endpoint is left out: a cold quick-preset overlay costs ~1.6 s, ten
// times any other exhibit, which would make every tail figure depend
// on whether one such request fell in the run; the exhibit probe of
// the traced runs times the overlay instead.
var endpoints = []string{
	"/api/figure/2", "/api/table1", "/api/figure/1", "/api/table/2", "/api/cdf/2",
	"/api/figure/3", "/api/figure/6", "/api/table/3", "/api/figure/9", "/api/cdf/1",
	"/api/figure/11", "/api/figure/15", "/api/multipath", "/api/figure/16", "/api/figure/12",
	"/api/packetlevel", "/api/figure/4", "/api/figure/7",
}

// endpointClass groups a request path for the per-class worker timings.
func endpointClass(path string) string {
	switch {
	case strings.HasPrefix(path, "/api/table1"):
		return "table1"
	case strings.HasPrefix(path, "/api/table/"):
		return "verdict"
	case strings.HasPrefix(path, "/api/figure/"):
		return "figure"
	case strings.HasPrefix(path, "/api/cdf/"):
		return "cdf"
	}
	return "extension"
}

var classes = []string{"table1", "verdict", "figure", "cdf", "extension"}

// discardLogger formats every access-log line but writes it nowhere,
// so the cost of logging is measured without terminal I/O.
var discardLogger = slog.New(slog.NewJSONHandler(io.Discard, nil))

// stack is the in-process fleet cmd/serve runs: a shard router in
// front of two workers, each with its own suite cache, all on loopback
// HTTP with the -cache 4 -max-builds 2 -retries 2 defaults.
type stack struct {
	servers []*httptest.Server
	workers []string
	router  string
	client  *http.Client
}

func newStack(seeds []int64, source func(m *server.Metrics) server.BuildFunc) (*stack, error) {
	lns, err := workerListeners(seeds)
	if err != nil {
		return nil, err
	}
	defaults := experiments.Config{Seed: 1, Preset: experiments.Quick}
	st := &stack{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: runtime.NumCPU(), MaxConnsPerHost: runtime.NumCPU(),
	}}}
	for _, ln := range lns {
		reg := obs.NewRegistry()
		m := server.NewMetrics(reg)
		cache := server.NewSuiteCache(4, 2, 0, source(m), m)
		srv := httptest.NewUnstartedServer(obs.Instrument(reg, discardLogger, server.NewHandler(cache, defaults, reg)))
		srv.Listener.Close()
		srv.Listener = ln
		srv.Start()
		st.servers = append(st.servers, srv)
		st.workers = append(st.workers, srv.URL)
	}
	reg := obs.NewRegistry()
	front := httptest.NewServer(obs.Instrument(reg, discardLogger, server.NewRouter(st.workers, defaults, 2, reg)))
	st.servers = append(st.servers, front)
	st.router = front.URL
	return st, nil
}

// workerListeners opens the two workers' loopback listeners on the
// first free port pair, scanning up from 39000, on which the router's
// ring gives each worker half of the suites. Ring placement hashes the
// worker URLs, so with ephemeral ports every run would split the
// suites differently; fixed, balanced ownership keeps runs comparable.
func workerListeners(seeds []int64) ([]net.Listener, error) {
	for p := 39000; p < 49000; p += 10 {
		addrs := []string{fmt.Sprintf("127.0.0.1:%d", p+1), fmt.Sprintf("127.0.0.1:%d", p+2)}
		ring := shard.New(0)
		for _, a := range addrs {
			ring.Add("http://" + a)
		}
		owned := 0
		for _, s := range seeds {
			if ring.Lookup(shard.Key(s, experiments.Quick.String()), 1)[0] == "http://"+addrs[0] {
				owned++
			}
		}
		if owned != len(seeds)/2 {
			continue
		}
		first, err := net.Listen("tcp", addrs[0])
		if err != nil {
			continue
		}
		second, err := net.Listen("tcp", addrs[1])
		if err != nil {
			first.Close()
			continue
		}
		return []net.Listener{first, second}, nil
	}
	return nil, errors.New("no free loopback port pair splits the suites evenly")
}

func (st *stack) close() {
	for _, s := range st.servers {
		s.Close()
	}
	st.client.CloseIdleConnections()
}

// get fetches base+path and returns the status, body digest and the
// worker that served it.
func (st *stack) get(ctx context.Context, base, path string) (int, [32]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return 0, [32]byte{}, "", err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, [32]byte{}, "", err
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return resp.StatusCode, [32]byte{}, "", err
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return resp.StatusCode, sum, resp.Header.Get("X-Pathsel-Worker"), nil
}

// scrape sums every unlabelled sample (histogram _sum and _count
// included) across the router's and the workers' /metrics endpoints.
func (st *stack) scrape(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	for _, base := range append([]string{st.router}, st.workers...) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := st.client.Do(req)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveWorkload replays an open-loop request mix against the stack.
type serveWorkload struct {
	churn   bool
	prof    serveProfile
	st      *stack
	dir     string              // snapshot directory (churn)
	paths   []string            // distinct request paths
	digests map[string][32]byte // body each path returned in set-up
	repeats int                 // set-up repetitions
	probe   *experiments.Suite  // a suite for the per-layer probes
	probeS  float64             // its build time, seconds
}

// newChurnWorkload returns the serve-churn workload. The snapshot
// builds, timed once, dominate its set-up, so the stack start is
// repeated only twice.
func newChurnWorkload() *serveWorkload {
	return &serveWorkload{churn: true, prof: churnProfile, repeats: 2}
}

func (w *serveWorkload) source(m *server.Metrics) server.BuildFunc {
	if w.churn {
		return server.NewSnapshotSource(w.dir, experiments.BuildContext, m, discardLogger)
	}
	return experiments.BuildContext
}

// setup starts the stack and warms it by fetching every distinct path
// once, recording each body's digest. For serve-churn the suites'
// snapshots are built and written first. Starting and warming the
// stack is repeated (earlier stacks are discarded) and the median
// reported, with the snapshot writing added to each.
func (w *serveWorkload) setup(ctx context.Context, r *run) ([]float64, error) {
	var writeS float64
	var err error
	if w.churn {
		if w.dir, err = scratchDir("serve-churn"); err != nil {
			return nil, err
		}
		t := time.Now()
		var builds []float64
		for _, seed := range w.prof.Seeds {
			bt := time.Now()
			s, err := experiments.BuildContext(ctx, experiments.Config{Seed: seed, Preset: experiments.Quick})
			if err != nil {
				return nil, err
			}
			builds = append(builds, time.Since(bt).Seconds())
			if _, err := snapshot.Write(w.dir, s); err != nil {
				return nil, err
			}
			if seed == w.prof.Seeds[0] {
				w.probe = s
			}
		}
		w.probeS = median(builds)
		writeS = time.Since(t).Seconds()
	}
	var ts []float64
	for i := 0; i < w.repeats; i++ {
		if w.st != nil {
			w.st.close()
		}
		t := time.Now()
		if w.st, err = newStack(w.prof.Seeds, w.source); err != nil {
			return nil, err
		}
		if err := w.warm(ctx); err != nil {
			return nil, err
		}
		ts = append(ts, time.Since(t).Seconds()+writeS)
	}
	return ts, nil
}

// warm fetches every distinct path once through the router, nproc
// requests at a time; with at most two requests in flight no worker
// reaches its build limit, so every suite lands on its ring owner.
func (w *serveWorkload) warm(ctx context.Context) error {
	slugs, err := w.cdfSlugs(ctx)
	if err != nil {
		return err
	}
	w.paths = w.paths[:0]
	for _, seed := range w.prof.Seeds {
		q := fmt.Sprintf("?seed=%d&preset=quick", seed)
		for _, ep := range endpoints {
			if s, ok := slugs[ep]; ok {
				ep += "/" + s
			}
			w.paths = append(w.paths, ep+q)
		}
	}
	w.digests = map[string][32]byte{}
	var mu sync.Mutex
	var firstErr error
	openLoop(ctx, make([]time.Duration, len(w.paths)), runtime.NumCPU(), func(ctx context.Context, i int) error {
		code, sum, _, err := w.st.get(ctx, w.st.router, w.paths[i])
		mu.Lock()
		defer mu.Unlock()
		if (err != nil || code != http.StatusOK) && firstErr == nil {
			firstErr = fmt.Errorf("warm %s: status %d: %v", w.paths[i], code, err)
		}
		w.digests[w.paths[i]] = sum
		return nil
	})
	return firstErr
}

// cdfSlugs resolves each /api/cdf/N template to the slug of figure N's
// first series, read from the figure's response.
func (w *serveWorkload) cdfSlugs(ctx context.Context) (map[string]string, error) {
	out := map[string]string{}
	for _, ep := range endpoints {
		fig, ok := strings.CutPrefix(ep, "/api/cdf/")
		if !ok {
			continue
		}
		q := fmt.Sprintf("?seed=%d&preset=quick", w.prof.Seeds[0])
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.st.router+"/api/figure/"+fig+q, nil)
		if err != nil {
			return nil, err
		}
		resp, err := w.st.client.Do(req)
		if err != nil {
			return nil, err
		}
		var series []struct {
			CDF string `json:"cdf"`
		}
		err = json.NewDecoder(resp.Body).Decode(&series)
		resp.Body.Close()
		if err != nil || len(series) == 0 {
			return nil, fmt.Errorf("figure %s: no series to take a cdf slug from: %v", fig, err)
		}
		link, _, _ := strings.Cut(series[0].CDF, "?")
		out[ep] = link[strings.LastIndex(link, "/")+1:]
	}
	return out, nil
}

// mixBlock is the length of the request cycle.
const mixBlock = 75

// mix returns requests from to from+n of the seed's request stream, a
// fixed cycle of mixBlock requests
// in which each warmed (suite, endpoint) path appears in proportion to
// the product of the suite's and the endpoint's zipf weights, spread
// evenly by smooth weighted round robin. The seed picks where in the
// cycle the run starts. Every run thus offers the same share of cheap
// and costly requests in the same rhythm, so the caches see the same
// reuse distances and a suite load is as likely in one run as in
// another; with freely shuffled requests the load count varied by a
// quarter between seeds.
func (w *serveWorkload) mix(seed int64, from, n int) []string {
	weights := make([]float64, len(w.paths))
	total := 0.0
	for i := range w.paths {
		// w.paths runs over endpoints within each suite, hottest first.
		weights[i] = math.Pow(float64(i/len(endpoints)+1), -w.prof.ZipfS) * math.Pow(float64(i%len(endpoints)+1), -w.prof.ZipfS)
		total += weights[i]
	}
	current := make([]float64, len(w.paths))
	cycle := make([]string, mixBlock)
	for k := range cycle {
		best := 0
		for i, wt := range weights {
			current[i] += wt
			if current[i] > current[best] {
				best = i
			}
		}
		current[best] -= total
		cycle[k] = w.paths[best]
	}
	offset := rand.New(rand.NewSource(seed)).Intn(mixBlock)
	out := make([]string, n)
	for i := range out {
		out[i] = cycle[(offset+from+i)%mixBlock]
	}
	return out
}

// phase replays paths at the given due times through the router and
// checks every response against its set-up digest.
func (w *serveWorkload) phase(ctx context.Context, r *run, tr *tracer, paths []string, dues []time.Duration) []sample {
	return openLoop(ctx, dues, runtime.NumCPU(), func(ctx context.Context, i int) error {
		sp := tr.start("loadgen.request", 0, int64(i+1))
		code, sum, _, err := w.st.get(ctx, w.st.router, paths[i])
		sp.end()
		switch {
		case err != nil:
		case code != http.StatusOK:
			err = fmt.Errorf("%s: status %d", paths[i], code)
		case sum != w.digests[paths[i]]:
			err = fmt.Errorf("%s: body differs from its set-up digest", paths[i])
		}
		r.record(err)
		return err
	})
}

func latenciesMs(ss []sample, lag bool) []float64 {
	var out []float64
	for _, s := range ss {
		d := s.latency
		if lag {
			d = s.lag
		}
		out = append(out, float64(d)/1e6)
	}
	return out
}

// searchSteps is how many offered rates the capacity search holds.
const searchSteps = 6

// sustained reports whether a step held its offered rate: every
// request succeeded, the p99 latency met the limit, and no backlog
// built up. The backlog test compares how late requests started: the
// median lag of the step's last fifth may exceed that of its first
// fifth by at most 2% of the step's length, so an offered rate more
// than about 2% above what the stack serves fails. It also returns the
// p99 latency and the lag growth, in ms.
func sustained(ss []sample, hold time.Duration, limitMs float64) (ok bool, p99Ms, growthMs float64) {
	n := len(ss) / 5
	if n == 0 {
		return false, 0, 0
	}
	ok = true
	for _, s := range ss {
		ok = ok && s.err == nil
	}
	p99Ms = quantile(latenciesMs(ss, false), 0.99)
	growthMs = median(latenciesMs(ss[len(ss)-n:], true)) - median(latenciesMs(ss[:n], true))
	return ok && p99Ms <= limitMs && growthMs <= 0.02*float64(hold)/1e6, p99Ms, growthMs
}

// capacity searches for the highest rate the stack sustains (see
// sustained), holding each of searchSteps rates for span/searchSteps
// with the request stream continuing from request from. It starts at
// the profile's recorded capacity, moves by a quarter up or down until
// one rate held and another did not, then bisects between the highest
// rate held and the lowest that was not. Each step drains before the
// next starts, so a failed step does not burden the next one. It
// returns the highest rate held (0 if none was).
func (w *serveWorkload) capacity(ctx context.Context, r *run, tr *tracer, from int, span time.Duration) float64 {
	hold := span / searchSteps
	held, failed := 0.0, math.Inf(1)
	rate := w.prof.Capacity
	var log []string
	for step := 0; step < searchSteps; step++ {
		n := max(int(rate*hold.Seconds()), 1)
		ss := w.phase(ctx, r, tr, w.mix(r.seed, from, n), evenDues(n, rate))
		from += n
		ok, p99Ms, growthMs := sustained(ss, hold, w.prof.LimitMs)
		log = append(log, fmt.Sprintf("%.0f:%v(p99 %.1f growth %.1f)", rate, ok, p99Ms, growthMs))
		if ok {
			held = rate
		} else {
			failed = rate
		}
		switch {
		case math.IsInf(failed, 1):
			rate *= 1.25
		case held == 0:
			rate /= 1.25
		default:
			rate = (held + failed) / 2
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench: capacity steps (req/s:held):", strings.Join(log, " "))
	return held
}

// measure runs three open-loop phases over d: 45% at the lo rate
// (whose latencies are the workload's p50 and tail), 10% at the hi
// rate, and 45% on the capacity search that gives max_rps.
func (w *serveWorkload) measure(ctx context.Context, r *run, tr *tracer, d time.Duration) (measured, error) {
	var m measured
	// Two unmeasured cycles at full speed bring the caches to the state
	// the cycle keeps them in, whatever order set-up left them in.
	w.phase(ctx, r, nil, w.mix(r.seed, 0, 2*mixBlock), make([]time.Duration, 2*mixBlock))
	before, err := w.st.scrape(ctx)
	if err != nil {
		return m, err
	}
	runtime.GC()
	a0 := allocated()
	attempted0, failed0 := r.counts()
	nLo := int(w.prof.Lo * (d * 45 / 100).Seconds())
	nHi := int(w.prof.Hi * (d / 10).Seconds())
	from := 2 * mixBlock
	lo := w.phase(ctx, r, tr, w.mix(r.seed, from, nLo), evenDues(nLo, w.prof.Lo))
	from += nLo
	hi := w.phase(ctx, r, tr, w.mix(r.seed, from, nHi), evenDues(nHi, w.prof.Hi))
	from += nHi
	m.maxRPS = w.capacity(ctx, r, tr, from, d*45/100)
	alloc := allocated() - a0
	after, err := w.st.scrape(ctx)
	if err != nil {
		return m, err
	}
	m.opsMs = latenciesMs(lo, false)
	attempted, failed := r.counts()
	m.ops = attempted - attempted0
	m.allocBytes = alloc
	delta := func(k string) float64 { return after[k] - before[k] }
	hits, misses := delta("suite_cache_hits_total"), delta("suite_cache_misses_total")
	// The cache times every BuildFunc call, snapshot loads included.
	loadMs := 0.0 // no suite was loaded
	if n := delta("suite_build_duration_seconds_count"); n > 0 {
		loadMs = 1e3 * delta("suite_build_duration_seconds_sum") / n
	}
	m.layer = map[string]metricValue{
		"loadgen.hi_p50_ms":       {median(latenciesMs(hi, false)), "ms"},
		"loadgen.hi_tail_ms":      {tailQuantile(latenciesMs(hi, false)), "ms"},
		"loadgen.lag_tail_ms":     {tailQuantile(latenciesMs(lo, true)), "ms"},
		"loadgen.error_rate":      {float64(failed-failed0) / float64(m.ops), "ratio"},
		"server.alloc_kb_per_req": {alloc / float64(m.ops) / 1e3, "KB"},
		"server.suite_loads":      {misses, "count"},
		"server.suite_load_ms":    {loadMs, "ms"},
		"server.cache_hit_ratio":  {hits / (hits + misses), "ratio"},
		"server.rejected_429":     {delta("suite_builds_rejected_total"), "count"},
		"shard.retries":           {delta("router_retries_total"), "count"},
	}
	return m, nil
}

// layers times each request class on its owning worker directly and
// through the router, then runs the shared per-layer probes.
func (w *serveWorkload) layers(ctx context.Context, r *run, tr *tracer) error {
	if err := w.workerProbe(ctx, r, tr); err != nil {
		return err
	}
	if w.probe == nil {
		t := time.Now()
		s, err := experiments.BuildContext(ctx, experiments.Config{Seed: w.prof.Seeds[0], Preset: experiments.Quick})
		if err != nil {
			return err
		}
		w.probe, w.probeS = s, time.Since(t).Seconds()
	}
	return probeLayers(ctx, r, tr, w.probe, w.probeS)
}

// workerProbe sends 200 mix requests first through the router and
// then straight to the worker that served them, recording a span for
// each, so worker time and router overhead can be told apart.
func (w *serveWorkload) workerProbe(ctx context.Context, r *run, tr *tracer) error {
	paths := w.mix(r.seed+1, 0, 200)
	for i, p := range paths {
		cls := endpointClass(p)
		sp := tr.start("shard.Router", 0, int64(i+1))
		code, sum, owner, err := w.st.get(ctx, w.st.router, p)
		sp.end()
		if err == nil && (code != http.StatusOK || sum != w.digests[p]) {
			err = fmt.Errorf("%s via router: status %d or body mismatch", p, code)
		}
		r.record(err)
		if err != nil {
			continue
		}
		sp = tr.start("server.Handler "+cls, 0, int64(i+1))
		code, sum, _, err = w.st.get(ctx, owner, p)
		sp.end()
		if err == nil && (code != http.StatusOK || sum != w.digests[p]) {
			err = fmt.Errorf("%s direct: status %d or body mismatch", p, code)
		}
		r.record(err)
	}
	var direct []float64
	for _, cls := range classes {
		ds := tr.durations("server.Handler " + cls)
		direct = append(direct, ds...)
		r.set("server.worker_ms."+cls+"_p50", "ms", orZero(median(ds)))
		r.set("server.worker_ms."+cls+"_tail", "ms", orZero(tailQuantile(ds)))
	}
	r.set("shard.router_overhead_ms", "ms", median(tr.durations("shard.Router"))-median(direct))
	return nil
}

func (w *serveWorkload) close() {
	if w.st != nil {
		w.st.close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
