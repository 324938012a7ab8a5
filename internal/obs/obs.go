// Package obs is a small, dependency-free metrics library for the
// serving layer: counters, gauges and duration histograms registered in
// a Registry and exposed in the Prometheus text format. It exists so
// the analysis service can report request rates, latencies, cache
// behavior and build concurrency without pulling an external client
// library into the reproduction.
package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into cumulative buckets, plus a
// running sum and count, matching the Prometheus histogram exposition.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending
	counts []int64   // non-cumulative per-bucket counts; len(bounds)+1 with +Inf last
	sum    float64
	n      int64
}

// DefBuckets covers milliseconds to minutes, suitable for both request
// latencies and suite build durations (seconds).
var DefBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// ObserveSince records the duration since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// metricKind tags the exposition TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered family member: a name, optional label
// pairs, and the backing collector.
type metric struct {
	family string
	help   string
	kind   metricKind
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds registered metrics and renders them. The zero value
// is not usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byKey   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*metric{}}
}

// labelEscaper escapes label values per the text format. A Replacer
// is safe for concurrent use, and building one costs far more than
// using it, so every registration shares this one.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// renderLabels formats label key/value pairs deterministically. pairs
// alternates key, value; values are escaped per the text format.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: odd label pair count")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, pairs[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// register returns the metric for family+labels, creating it on first
// use. Kind mismatches on the same family panic: that is a programming
// error, not a runtime condition.
func (r *Registry) register(family, help string, kind metricKind, labelPairs []string) *metric {
	labels := renderLabels(labelPairs)
	key := family + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different kind", key))
		}
		return m
	}
	m := &metric{family: family, help: help, kind: kind, labels: labels}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		h := &Histogram{bounds: append([]float64(nil), DefBuckets...)}
		h.counts = make([]int64, len(h.bounds)+1)
		m.h = h
	}
	r.metrics = append(r.metrics, m)
	r.byKey[key] = m
	return m
}

// Counter returns the counter with the given family name and label
// pairs (key, value, key, value, ...), creating it on first use.
func (r *Registry) Counter(family, help string, labelPairs ...string) *Counter {
	return r.register(family, help, kindCounter, labelPairs).c
}

// Gauge returns the gauge with the given family name and label pairs.
func (r *Registry) Gauge(family, help string, labelPairs ...string) *Gauge {
	return r.register(family, help, kindGauge, labelPairs).g
}

// Histogram returns the histogram with the given family name and label
// pairs.
func (r *Registry) Histogram(family, help string, labelPairs ...string) *Histogram {
	return r.register(family, help, kindHistogram, labelPairs).h
}

// WriteText renders every registered metric in the Prometheus text
// exposition format, grouping families and emitting HELP/TYPE headers
// once per family.
func (r *Registry) WriteText(w *strings.Builder) {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	// Stable output: sort by family then label set, preserving HELP/TYPE
	// grouping.
	sort.SliceStable(metrics, func(i, j int) bool {
		if metrics[i].family != metrics[j].family {
			return metrics[i].family < metrics[j].family
		}
		return metrics[i].labels < metrics[j].labels
	})
	lastFamily := ""
	for _, m := range metrics {
		if m.family != lastFamily {
			lastFamily = m.family
			kind := map[metricKind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[m.kind]
			if m.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", m.family, m.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", m.family, kind)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s%s %d\n", m.family, m.labels, m.c.Value())
		case kindGauge:
			fmt.Fprintf(w, "%s%s %d\n", m.family, m.labels, m.g.Value())
		case kindHistogram:
			m.h.mu.Lock()
			cum := int64(0)
			for i, b := range m.h.bounds {
				cum += m.h.counts[i]
				fmt.Fprintf(w, "%s_bucket%s %d\n", m.family, mergeLabels(m.labels, fmt.Sprintf(`le="%g"`, b)), cum)
			}
			cum += m.h.counts[len(m.h.bounds)]
			fmt.Fprintf(w, "%s_bucket%s %d\n", m.family, mergeLabels(m.labels, `le="+Inf"`), cum)
			fmt.Fprintf(w, "%s_sum%s %g\n", m.family, m.labels, m.h.sum)
			fmt.Fprintf(w, "%s_count%s %d\n", m.family, m.labels, m.h.n)
			m.h.mu.Unlock()
		}
	}
}

// mergeLabels appends extra (a raw k="v" fragment) to an existing
// rendered label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// Handler serves the registry as a text/plain metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.WriteText(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
}
