package obs

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total", "Requests.", "code", "200").Add(3)
	reg.Counter("requests_total", "Requests.", "code", "404").Inc()
	g := reg.Gauge("inflight", "In-flight builds.")
	g.Inc()
	g.Inc()
	g.Dec()

	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		`requests_total{code="200"} 3`,
		`requests_total{code="404"} 1`,
		"# TYPE inflight gauge",
		"inflight 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE emitted once per family even with two label sets.
	if strings.Count(out, "# TYPE requests_total") != 1 {
		t.Errorf("TYPE line repeated:\n%s", out)
	}
}

func TestCounterIdentity(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "")
	b := reg.Counter("x_total", "")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("counter identity broken")
	}
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("build_seconds", "Build durations.")
	for _, v := range []float64{0.0001, 0.3, 0.3, 7, 1e6} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		`build_seconds_bucket{le="0.001"} 1`,
		`build_seconds_bucket{le="0.5"} 3`,
		`build_seconds_bucket{le="10"} 4`,
		`build_seconds_bucket{le="+Inf"} 5`,
		"build_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("d", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64(j) / 100)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count %d", h.Count())
	}
}

func TestInstrument(t *testing.T) {
	reg := NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/thing/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	h := Instrument(reg, nil, mux)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/thing/42", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status %d", rec.Code)
	}

	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	// Metrics are keyed by the route pattern, not the concrete path, so
	// cardinality stays bounded.
	if !strings.Contains(out, `http_requests_total{route="GET /api/thing/{id}",code="418"} 1`) {
		t.Errorf("missing pattern-labeled counter:\n%s", out)
	}
	if strings.Contains(out, "/api/thing/42") {
		t.Errorf("raw path leaked into metric labels:\n%s", out)
	}
}

// TestInstrumentPanicAfterHeader checks the other half of panic
// recovery: once a header is on the wire the response is aborted, not
// turned into a 500, and the panic is still counted.
func TestInstrumentPanicAfterHeader(t *testing.T) {
	reg := NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stream", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		panic("mid-stream")
	})
	srv := httptest.NewServer(Instrument(reg, slog.New(slog.NewTextHandler(io.Discard, nil)), mux))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stream")
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("response completed; want it aborted")
	}
	if n := reg.Counter("http_panics_total", "", "route", "GET /stream").Value(); n != 1 {
		t.Errorf("http_panics_total = %d, want 1", n)
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "up_total 1") {
		t.Fatalf("body missing counter:\n%s", rec.Body.String())
	}
}

func TestRenderLabelsEscapes(t *testing.T) {
	got := renderLabels([]string{"path", "a\\b\nc\"d", "code", "200"})
	if want := `{path="a\\b\nc\"d",code="200"}`; got != want {
		t.Errorf("renderLabels = %s, want %s", got, want)
	}
}

// discardWriter is a ResponseWriter that allocates nothing, so an
// allocation count sees only the middleware.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestInstrumentAllocs pins the middleware's per-request allocations:
// the status writer, the two label renderings with their registry
// keys, and the timing. Building the label escaper per registration
// would add about 27 allocations and 20 KB to every request.
func TestInstrumentAllocs(t *testing.T) {
	h := Instrument(NewRegistry(), nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	r := httptest.NewRequest(http.MethodGet, "/api/thing/42", nil)
	r.Pattern = "GET /api/thing/{id}"
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, r) // register the route's metrics
	if allocs := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, r) }); allocs > 16 {
		t.Errorf("an instrumented request allocates %v times, want at most 16", allocs)
	}
}
