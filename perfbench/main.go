// Command perfbench is the repository benchmark. One run sets up one
// workload, measures it for a fixed time, checks every output it
// measured, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 10 --trace 0
//
// Workloads (see definition.json for why each was chosen):
//
//   - build: cold quick-preset experiments.BuildContext.
//   - serve-churn: router plus two workers over loopback HTTP, loading
//     suites from snapshots, with more suites in the mix than the
//     caches hold.
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the timed section runs untraced and then traced (half the
// time each), spans are recorded around each call into a layer, and
// the result carries the per-layer metrics plus the tracing overhead.
// Either way the full result, the environment stamp and (when traced)
// the span dump are written to .bench_build/results/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run carries one benchmark run's settings and tallies.
type run struct {
	seed    int64
	seconds time.Duration

	heap *heapSampler // live-heap sampler of an untraced timed section

	mu        sync.Mutex
	attempted int
	failed    int
	metrics   map[string]metricValue
}

func newRun(seed int64, seconds time.Duration) *run {
	return &run{seed: seed, seconds: seconds, metrics: map[string]metricValue{}}
}

// record counts one attempted operation; a non-nil err (a failed call,
// refused request or failed output check) counts it as failed.
func (r *run) record(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
		}
	}
}

// counts returns the operations attempted and failed so far.
func (r *run) counts() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted, r.failed
}

func (r *run) set(name, unit string, v float64) {
	r.mu.Lock()
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	r.mu.Unlock()
}

// measured is what a workload's timed section reports.
type measured struct {
	opsMs  []float64 // latency of each operation, ms
	ops    int       // operations completed (alloc_mb divides by it)
	maxRPS float64   // sustained operations per second
	// allocBytes is what the operations allocated, the whole process
	// included.
	allocBytes float64
	// heapPeaks, when set, holds each operation's peak live heap in
	// bytes; peak_heap_mb is then their median rather than the run's
	// peak.
	heapPeaks []float64
	// layer holds per-layer figures the timed section observed
	// directly (serving counters, latency at the hi rate); they are
	// reported in traced runs only.
	layer map[string]metricValue
}

// workload is one benchmark workload. setup prepares it, repeating
// the preparation and returning each repetition's time in seconds;
// measure runs the timed section for d, recording spans into tr when
// tr is not nil; layers runs the traced per-layer probes once.
type workload interface {
	setup(ctx context.Context, r *run) (setupS []float64, err error)
	measure(ctx context.Context, r *run, tr *tracer, d time.Duration) (measured, error)
	layers(ctx context.Context, r *run, tr *tracer) error
	close()
}

var workloads = map[string]func() workload{
	"build":       func() workload { return &buildWorkload{} },
	"serve-churn": func() workload { return newChurnWorkload() },
}

func main() {
	name := flag.String("workload", "", "workload: build or serve-churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed section, seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload build|serve-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, doc, err := execute(context.Background(), *name, mk(), newRun(*seed, time.Duration(*seconds)*time.Second), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResults(*name, *seed, *trace, doc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload end to end and returns the printed result
// plus the fuller document written beside it.
func execute(ctx context.Context, name string, w workload, r *run, traced bool) (result, map[string]any, error) {
	defer w.close()
	setupS, err := w.setup(ctx, r)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	doc := map[string]any{"workload": name, "seed": r.seed, "seconds": r.seconds.Seconds(), "env": environment(),
		"setup_runs_s": setupS}
	if !traced {
		gc0 := readMetric("/cpu/classes/gc/total:cpu-seconds")
		runtime.GC()
		r.heap = startHeapSampler()
		m, err := w.measure(ctx, r, nil, r.seconds)
		peak := r.heap.stop()
		r.heap = nil
		if len(m.heapPeaks) > 0 {
			peak = median(m.heapPeaks)
		}
		if err != nil {
			return result{}, nil, fmt.Errorf("%s: %w", name, err)
		}
		if len(m.opsMs) == 0 || m.ops == 0 {
			return result{}, nil, fmt.Errorf("%s: timed section completed no operation", name)
		}
		r.set("setup_s", "s", median(setupS))
		r.set("p50_ms", "ms", median(m.opsMs))
		r.set("tail_ms", "ms", tailQuantile(m.opsMs))
		r.set("max_rps", "1/s", m.maxRPS)
		r.set("alloc_mb", "MB", m.allocBytes/float64(m.ops)/1e6)
		r.set("peak_heap_mb", "MB", peak/1e6)
		doc["ops"] = len(m.opsMs)
		doc["ops_ms"] = m.opsMs
		doc["gc_cpu_s"] = readMetric("/cpu/classes/gc/total:cpu-seconds") - gc0
		doc["layer"] = m.layer
	} else {
		tr := newTracer()
		gc0 := readMetric("/cpu/classes/gc/total:cpu-seconds")
		plain, err := w.measure(ctx, r, nil, r.seconds/2)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s: %w", name, err)
		}
		withSpans, err := w.measure(ctx, r, tr, r.seconds/2)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s traced: %w", name, err)
		}
		r.set("runtime.gc_cpu_s", "s", readMetric("/cpu/classes/gc/total:cpu-seconds")-gc0)
		if err := w.layers(ctx, r, tr); err != nil {
			return result{}, nil, fmt.Errorf("%s layers: %w", name, err)
		}
		for k, v := range withSpans.layer {
			r.set(k, v.Unit, v.Value)
		}
		if len(plain.opsMs) == 0 || len(withSpans.opsMs) == 0 {
			return result{}, nil, fmt.Errorf("%s: timed section completed no operation", name)
		}
		base, with := median(plain.opsMs), median(withSpans.opsMs)
		r.set("trace.overhead_pct", "%", 100*(with-base)/base)
		spans := tr.all()
		r.set("trace.spans", "count", float64(len(spans)))
		doc["untraced_p50_ms"], doc["traced_p50_ms"] = base, with
		doc["spans"] = spans
	}
	for k, v := range r.metrics {
		if !metricName.MatchString(k) {
			return result{}, nil, fmt.Errorf("metric name %q does not match %s", k, metricName)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return result{}, nil, fmt.Errorf("metric %s has no value", k)
		}
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	doc["result"] = res
	return res, doc, nil
}

// heapSampler samples the live heap (as marked by the last garbage
// collection) every 5 ms, keeping the peak of the whole run and of the
// current window.
type heapSampler struct {
	mu               sync.Mutex
	peak, windowPeak float64 // of the run; of the current window
	done             chan struct{}
	wg               sync.WaitGroup
}

const liveHeap = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := readMetric(liveHeap)
	h.mu.Lock()
	h.peak, h.windowPeak = max(h.peak, v), max(h.windowPeak, v)
	h.mu.Unlock()
}

// window returns the peak since the previous call (or the start) and
// opens a new window at the current live heap.
func (h *heapSampler) window() float64 {
	if h == nil {
		return 0
	}
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.windowPeak
	h.windowPeak = readMetric(liveHeap)
	return p
}

// stop ends sampling and returns the run's peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	h.sample()
	return h.peak
}

// readMetric reads one runtime/metrics value as a float.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

// allocated returns the bytes the process has allocated so far.
func allocated() float64 { return readMetric("/gc/heap/allocs:bytes") }

// environment stamps the machine and toolchain a result came from.
func environment() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpu, "go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

// resultsDir holds each run's full result document, inside the build
// directory the wrapper script uses.
const resultsDir = ".bench_build/results"

func writeResults(name string, seed int64, trace int, doc map[string]any) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// scratchDir is where a workload keeps files it writes during a run.
func scratchDir(name string) (string, error) {
	dir := filepath.Join(".bench_build", "scratch", fmt.Sprintf("%s-%d", name, os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}
