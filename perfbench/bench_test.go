package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 4 = %v, want the lower middle 2", got)
	}
}

func TestTailQuantileKeepsTwentyAbove(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{2000, 1980}, {1000, 950}, {300, 270}, {200, 180}, {150, 113}, {22, 17}, {4, 3}} {
		if got := tailQuantile(seq(c.n)); got != c.want {
			t.Errorf("tailQuantile of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
}

// A stalled response must raise the latency of the requests queued
// behind it: latency runs from the due time, not from the send.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	dues := evenDues(10, 1000) // one request per millisecond
	got := openLoop(context.Background(), dues, 1, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, s := range got {
		if s.latency < s.lag {
			t.Errorf("request %d: latency %v below its lag %v", i, s.latency, s.lag)
		}
	}
	for i := 1; i < len(got); i++ {
		// Request i was due i ms in but could start only after the
		// stall ended.
		if min := stall - dues[i] - 5*time.Millisecond; got[i].lag < min || got[i].latency < min {
			t.Errorf("request %d: lag %v latency %v, want both at least %v", i, got[i].lag, got[i].latency, min)
		}
	}
	if got[0].lag > 5*time.Millisecond {
		t.Errorf("first request started %v late", got[0].lag)
	}
}

func TestOpenLoopNeverSendsEarly(t *testing.T) {
	dues := evenDues(20, 200)
	got := openLoop(context.Background(), dues, 2, func(context.Context, int) error { return nil })
	for _, s := range got {
		if s.lag < 0 {
			t.Errorf("request due at %v sent %v early", s.due, -s.lag)
		}
	}
	if last := got[len(got)-1]; last.latency < last.lag {
		t.Errorf("last request: latency %v below its lag %v", last.latency, last.lag)
	}
}

// samplesAt builds a step of n requests whose lag rises linearly from
// 0 to end, each taking 1 ms after it started.
func samplesAt(n int, end time.Duration) []sample {
	ss := make([]sample, n)
	for i := range ss {
		lag := end * time.Duration(i) / time.Duration(n)
		ss[i] = sample{lag: lag, latency: lag + time.Millisecond}
	}
	return ss
}

func TestSustainedDetectsGrowingBacklog(t *testing.T) {
	hold := time.Second // growth allowed: 20 ms
	failed := samplesAt(500, 0)
	failed[7].err = errors.New("status 503")
	for _, c := range []struct {
		name    string
		ss      []sample
		limitMs float64
		want    bool
	}{
		{"no lag", samplesAt(500, 0), 50, true},
		{"lag growing 12 ms between the first and last fifth", samplesAt(500, 15*time.Millisecond), 50, true},
		{"lag growing 32 ms, latency within the limit", samplesAt(500, 40*time.Millisecond), 50, false},
		{"latency over the limit", samplesAt(500, 0), 0.5, false},
		{"a failed request", failed, 50, false},
	} {
		if ok, _, _ := sustained(c.ss, hold, c.limitMs); ok != c.want {
			t.Errorf("%s: sustained = %v, want %v", c.name, ok, c.want)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchMetric           `json:"end_to_end"`
	PerLayer  []benchMetric           `json:"per_layer"`
}

type benchMetric struct {
	Name, Unit string
	Bound      float64 // end-to-end metrics only
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDefinitionMatchesBenchmarkFile checks that definition.json
// names only workloads and metrics BENCHMARK.json has, gives every
// end-to-end metric a meaning on every workload, and records a spread
// within its bound for every end-to-end metric of every workload.
func TestDefinitionMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range f.Workloads {
		workloads[w.Name] = true
	}
	bounds := map[string]float64{}
	for _, m := range f.EndToEnd {
		metrics[m.Name], bounds[m.Name] = true, m.Bound
	}
	for _, m := range f.PerLayer {
		metrics[m.Name] = true
	}
	known := func(pattern string) bool {
		for name := range metrics {
			if ok, _ := path.Match(pattern, name); ok {
				return true
			}
		}
		return false
	}
	var def struct {
		Metrics      map[string]json.RawMessage `json:"metrics"`
		Interactions []struct {
			LayerMetrics []string `json:"layer_metrics"`
			Moves        []string `json:"moves"`
			On           []string `json:"on"`
		} `json:"interactions"`
		Spread struct {
			Runs map[string]map[string]float64 `json:"iqr_over_median"`
		} `json:"measured_spread"`
	}
	if err := json.Unmarshal(definitionJSON, &def); err != nil {
		t.Fatal(err)
	}
	for name, raw := range def.Metrics {
		if !metrics[name] {
			t.Errorf("definition.json describes %s, which BENCHMARK.json does not list", name)
		}
		var perWorkload map[string]string
		if json.Unmarshal(raw, &perWorkload) == nil {
			for w := range perWorkload {
				if !workloads[w] {
					t.Errorf("%s: unknown workload %s", name, w)
				}
			}
			if len(perWorkload) != len(workloads) {
				t.Errorf("%s: meaning given for %d of %d workloads", name, len(perWorkload), len(workloads))
			}
		}
	}
	for name := range bounds {
		if def.Metrics[name] == nil {
			t.Errorf("end-to-end metric %s has no meaning in definition.json", name)
		}
	}
	for _, in := range def.Interactions {
		for _, m := range append(in.LayerMetrics, in.Moves...) {
			if !known(m) {
				t.Errorf("interaction names %s, which matches no metric in BENCHMARK.json", m)
			}
		}
		for _, w := range in.On {
			if !workloads[w] {
				t.Errorf("interaction on unknown workload %s", w)
			}
		}
	}
	if len(def.Spread.Runs) != len(workloads) {
		t.Errorf("spread recorded for %d of %d workloads", len(def.Spread.Runs), len(workloads))
	}
	for w, spreads := range def.Spread.Runs {
		if !workloads[w] {
			t.Errorf("spread recorded for unknown workload %s", w)
		}
		for name, bound := range bounds {
			if v, ok := spreads[name]; !ok || v > bound {
				t.Errorf("%s %s: recorded spread %v (present %v), bound %v", w, name, v, ok, bound)
			}
		}
	}
}

// The serve rates are 15% and 50% of the recorded capacity (see
// definition.json), rounded to 5 req/s.
func TestServeProfilesDeriveFromCapacity(t *testing.T) {
	if p := churnProfile; math.Abs(p.Lo-0.15*p.Capacity) > 5 || math.Abs(p.Hi-0.5*p.Capacity) > 5 {
		t.Errorf("profile %+v: want lo and hi at 15%% and 50%% of capacity", p)
	}
}

func TestMetricNamesMatchPattern(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, m := range append(f.EndToEnd, f.PerLayer...) {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
	}
	for _, bad := range []string{"p99 ms", "lat/ms", "", "a,b"} {
		if metricName.MatchString(bad) {
			t.Errorf("pattern accepts %q", bad)
		}
	}
}

// fakeWorkload completes three operations, the second failing its
// output check.
type fakeWorkload struct{}

func (fakeWorkload) setup(context.Context, *run) ([]float64, error) { return []float64{0.5}, nil }
func (fakeWorkload) measure(_ context.Context, r *run, tr *tracer, _ time.Duration) (measured, error) {
	for i := 0; i < 3; i++ {
		sp := tr.start("fake.op", 0, 0)
		sp.end()
		var err error
		if i == 1 {
			err = errors.New("output check failed")
		}
		r.record(err)
	}
	return measured{opsMs: []float64{1, 2}, ops: 2, maxRPS: 3, allocBytes: 4e6,
		layer: map[string]metricValue{"fake.layer_ms": {1, "ms"}}}, nil
}
func (fakeWorkload) layers(_ context.Context, r *run, _ *tracer) error {
	r.set("fake.probe_ms", "ms", 2)
	return nil
}
func (fakeWorkload) close() {}

func TestFailedCheckCountsAgainstAttempted(t *testing.T) {
	res, _, err := execute(context.Background(), "fake", fakeWorkload{}, newRun(1, time.Second), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 3 || res.Failed != 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 3 1", res.Correct, res.Attempted, res.Failed)
	}
	if got := res.Metrics["alloc_mb"].Value; got != 2 {
		t.Errorf("alloc_mb = %v, want 4 MB over 2 operations", got)
	}
}

func TestUntracedRunReportsEveryEndToEndMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	res, _, err := execute(context.Background(), "fake", fakeWorkload{}, newRun(1, time.Second), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(f.EndToEnd) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(f.EndToEnd))
	}
	for _, m := range f.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
}

func TestTracedRunReportsOverheadAndSpans(t *testing.T) {
	res, doc, err := execute(context.Background(), "fake", fakeWorkload{}, newRun(1, time.Second), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"trace.overhead_pct", "trace.spans", "fake.layer_ms", "fake.probe_ms", "runtime.gc_cpu_s"} {
		if _, ok := res.Metrics[k]; !ok {
			t.Errorf("traced result lacks %s", k)
		}
	}
	if _, ok := res.Metrics["p50_ms"]; ok {
		t.Error("traced result carries an end-to-end metric")
	}
	if spans, _ := doc["spans"].([]span); len(spans) != 3 {
		t.Errorf("span dump has %d spans, want the 3 traced operations", len(spans))
	}
}

// A serve response whose body differs from its set-up digest is a
// failed operation, even though the request itself succeeded.
func TestServeDigestMismatchCountsAsFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, r.URL.Path)
	}))
	defer srv.Close()
	w := &serveWorkload{st: &stack{router: srv.URL, client: srv.Client()}, digests: map[string][32]byte{}}
	for _, p := range []string{"/a", "/b"} {
		_, sum, _, err := w.st.get(context.Background(), srv.URL, p)
		if err != nil {
			t.Fatal(err)
		}
		w.digests[p] = sum
	}
	w.digests["/b"] = [32]byte{1} // as if /b had answered differently in set-up
	r := newRun(1, time.Second)
	got := w.phase(context.Background(), r, nil, []string{"/a", "/b", "/a"}, evenDues(3, 1000))
	if r.attempted != 3 || r.failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", r.attempted, r.failed)
	}
	if got[1].err == nil || got[0].err != nil {
		t.Errorf("errors %v %v, want only the mismatched body to fail", got[0].err, got[1].err)
	}
}

func TestMixWindowsShareOneComposition(t *testing.T) {
	w := &serveWorkload{prof: churnProfile}
	for _, s := range w.prof.Seeds {
		for _, ep := range endpoints {
			w.paths = append(w.paths, fmt.Sprintf("%s?seed=%d", ep, s))
		}
	}
	a, b := w.mix(1, 0, 3*mixBlock), w.mix(2, 0, 3*mixBlock)
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Error("seeds 1 and 2 gave the same request order")
	}
	if fmt.Sprint(a) != fmt.Sprint(w.mix(1, 0, 3*mixBlock)) {
		t.Error("seed 1 gave two different request orders")
	}
	if fmt.Sprint(a[100:130]) != fmt.Sprint(w.mix(1, 100, 30)) {
		t.Error("a stream read from request 100 on differs from the whole stream")
	}
	count := func(ps []string) map[string]int {
		m := map[string]int{}
		for _, p := range ps {
			m[p]++
		}
		return m
	}
	want := fmt.Sprint(count(a[:mixBlock]))
	for i := 1; i < 3; i++ {
		for _, ps := range [][]string{a, b} {
			if got := fmt.Sprint(count(ps[i*mixBlock : (i+1)*mixBlock])); got != want {
				t.Errorf("window %d composition differs from window 0", i)
			}
		}
	}
	if top := count(a[:mixBlock])[w.paths[0]]; top <= count(a[:mixBlock])[w.paths[len(w.paths)-1]] {
		t.Errorf("hottest path drawn %d times per cycle, no more than the coldest", top)
	}
}
