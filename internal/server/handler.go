package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"

	"pathsel/internal/dataset"
	"pathsel/internal/experiments"
	"pathsel/internal/obs"
	"pathsel/internal/stats"
)

// handler serves every suite analysis on demand: endpoints take
// ?seed=N&preset=quick|full|scale query parameters (falling back to the
// server's default configuration) and are backed by the LRU suite
// cache, so the same process answers any configuration without a
// restart.
type handler struct {
	cache    *SuiteCache
	defaults experiments.Config
	reg      *obs.Registry
	mux      *http.ServeMux
}

// NewHandler wires the routes. defaults supplies the seed and preset
// used when a request does not specify them.
func NewHandler(cache *SuiteCache, defaults experiments.Config, reg *obs.Registry) http.Handler {
	h := &handler{cache: cache, defaults: defaults, reg: reg, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /{$}", h.index)
	h.mux.HandleFunc("GET /api/table1", jsonExhibit(h, "table1", func(s *experiments.Suite) ([]dataset.Characteristics, error) {
		return experiments.Table1(s), nil
	}))
	h.mux.HandleFunc("GET /api/table/{n}", h.verdictTable)
	h.mux.HandleFunc("GET /api/figure/{n}", h.figure)
	h.mux.HandleFunc("GET /api/cdf/{fig}/{series}", h.cdf)
	h.mux.HandleFunc("GET /api/overlay", h.overlay)
	h.mux.HandleFunc("GET /api/multipath", jsonExhibit(h, "multipath", experiments.Multipath))
	h.mux.HandleFunc("GET /api/packetlevel", jsonExhibit(h, "packetlevel", experiments.ValidatePacketLevel))
	h.mux.HandleFunc("GET /api/suites", h.suites)
	h.mux.HandleFunc("GET /healthz", h.healthz)
	h.mux.Handle("GET /metrics", reg.Handler())
	h.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	h.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	h.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	h.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	h.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return h
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// configFrom resolves the request's suite configuration from the seed
// and preset query parameters, defaulting to the server configuration.
func (h *handler) configFrom(r *http.Request) (experiments.Config, error) {
	return suiteConfigFrom(h.defaults, r)
}

// suiteConfigFrom parses the ?seed and ?preset query parameters on top
// of the given defaults. The worker handler and the shard router share
// this one parser, so a request hashes to the same configuration the
// worker will resolve it to.
func suiteConfigFrom(defaults experiments.Config, r *http.Request) (experiments.Config, error) {
	cfg := defaults
	q := r.URL.Query()
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad seed %q: want an integer", v)
		}
		cfg.Seed = seed
	}
	if v := q.Get("preset"); v != "" {
		preset, err := experiments.ParsePreset(v)
		if err != nil {
			return cfg, err
		}
		cfg.Preset = preset
	}
	return cfg, nil
}

// entryFor parses the request configuration and resolves it through
// the cache, writing the appropriate error response (400 for bad
// parameters, 429 when build capacity is saturated, 500 for build
// failures) and returning ok=false when the caller should not proceed.
func (h *handler) entryFor(w http.ResponseWriter, r *http.Request) (*suiteEntry, bool) {
	cfg, err := h.configFrom(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	e, err := h.cache.Get(r.Context(), cfg)
	switch {
	case err == nil:
		return e, true
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", "10")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case r.Context().Err() != nil:
		// The client is gone; nothing useful can be written.
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return nil, false
}

// memoized resolves the request's suite and returns the exhibit
// stored under key in the suite's memo, computing it on first use. It
// writes the error response and returns ok=false when the caller
// should not proceed.
func memoized[V any](h *handler, w http.ResponseWriter, r *http.Request, key string, compute func(*experiments.Suite) (V, error)) (V, bool) {
	var res V
	e, ok := h.entryFor(w, r)
	if !ok {
		return res, false
	}
	v, err := e.results.do(r.Context(), key, func(ctx context.Context) (any, error) {
		return compute(e.suite.WithContext(ctx))
	})
	if err != nil {
		if r.Context().Err() == nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return res, false
	}
	return v.(V), true
}

// jsonExhibit serves the exhibit compute returns as its JSON body.
func jsonExhibit[V any](h *handler, key string, compute func(*experiments.Suite) (V, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if res, ok := memoized(h, w, r, key, compute); ok {
			writeJSON(w, res)
		}
	}
}

// figureFor looks up the registry figure a path segment names, writing
// a 404 when there is none; checked before resolving the suite so an
// unknown figure 404s without building anything.
func figureFor(w http.ResponseWriter, n string) (experiments.Figure, bool) {
	for _, f := range experiments.Figures {
		if strconv.Itoa(f.N) == n {
			return f, true
		}
	}
	http.Error(w, fmt.Sprintf("unknown figure %q", n), http.StatusNotFound)
	return experiments.Figure{}, false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

type verdictJSON struct {
	Dataset       string  `json:"dataset"`
	Better        float64 `json:"betterPct"`
	Indeterminate float64 `json:"indeterminatePct"`
	Worse         float64 `json:"worsePct"`
	BothZero      float64 `json:"bothZeroPct"`
}

func (h *handler) verdictTable(w http.ResponseWriter, r *http.Request) {
	var fn func(*experiments.Suite) ([]experiments.VerdictRow, error)
	n := r.PathValue("n")
	switch n {
	case "2":
		fn = experiments.Table2
	case "3":
		fn = experiments.Table3
	default:
		http.Error(w, "unknown table (want 2 or 3)", http.StatusNotFound)
		return
	}
	rows, ok := memoized(h, w, r, "table/"+n, fn)
	if !ok {
		return
	}
	out := make([]verdictJSON, len(rows))
	for i, row := range rows {
		b, ind, wo, z := row.Counts.Percent()
		out[i] = verdictJSON{Dataset: row.Dataset, Better: b, Indeterminate: ind, Worse: wo, BothZero: z}
	}
	writeJSON(w, out)
}

type seriesJSON struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	Median      float64 `json:"median"`
	P90         float64 `json:"p90"`
	FracAbove0  float64 `json:"fracAboveZero"`
	CDFEndpoint string  `json:"cdf"`
}

// cdfQuery reproduces the request's configuration parameters on nested
// endpoint links, so a figure fetched for one seed links to CDFs of
// the same seed. The links carry the parsed values (cfg, resolved from
// r) of the parameters the request set, re-encoded: a raw "seed=%2B5"
// would decode to " 5" once copied into a link.
func cdfQuery(r *http.Request, cfg experiments.Config) string {
	q := r.URL.Query()
	keep := url.Values{}
	if q.Get("seed") != "" {
		keep.Set("seed", strconv.FormatInt(cfg.Seed, 10))
	}
	if q.Get("preset") != "" {
		keep.Set("preset", cfg.Preset.String())
	}
	if len(keep) == 0 {
		return ""
	}
	return "?" + keep.Encode()
}

// series returns the memoized curves of the figure a path segment
// names, writing the error response and returning ok=false when the
// caller should not proceed.
func (h *handler) series(w http.ResponseWriter, r *http.Request, n string) ([]experiments.Series, bool) {
	fig, ok := figureFor(w, n)
	if !ok {
		return nil, false
	}
	return memoized(h, w, r, "figure/"+n, fig.Series)
}

func (h *handler) figure(w http.ResponseWriter, r *http.Request) {
	n := r.PathValue("n")
	series, ok := h.series(w, r, n)
	if !ok {
		return
	}
	cfg, _ := h.configFrom(r) // h.series has already rejected a bad one
	query := cdfQuery(r, cfg)
	out := make([]seriesJSON, 0, len(series))
	for _, sr := range series {
		med, _ := sr.CDF.Quantile(0.5)
		p90, _ := sr.CDF.Quantile(0.9)
		out = append(out, seriesJSON{
			Name: sr.Name, N: sr.CDF.N(), Median: med, P90: p90,
			FracAbove0:  sr.CDF.FractionAbove(0),
			CDFEndpoint: fmt.Sprintf("/api/cdf/%s/%s%s", n, slug(sr.Name), query),
		})
	}
	writeJSON(w, out)
}

func (h *handler) cdf(w http.ResponseWriter, r *http.Request) {
	series, ok := h.series(w, r, r.PathValue("fig"))
	if !ok {
		return
	}
	want := r.PathValue("series")
	for _, sr := range series {
		if slug(sr.Name) != want {
			continue
		}
		w.Header().Set("Content-Type", "text/tab-separated-values")
		for _, p := range sr.CDF.Points() {
			fmt.Fprintf(w, "%g\t%.4f\n", p.X, p.Frac)
		}
		return
	}
	http.Error(w, "unknown series", http.StatusNotFound)
}

// overlayBudgetJSON is one probing-budget row of the overlay exhibit.
type overlayBudgetJSON struct {
	ProbesPerSec float64 `json:"probesPerSec"`
	AvailDefault float64 `json:"availDefault"`
	AvailOverlay float64 `json:"availOverlay"`
	AvailOptimal float64 `json:"availOptimal"`
	RTTDefaultMs float64 `json:"rttDefaultMs"`
	RTTOverlayMs float64 `json:"rttOverlayMs"`
	RTTOptimalMs float64 `json:"rttOptimalMs"`
	RelayShare   float64 `json:"relayShare"`

	Reactions         int     `json:"reactions"`
	MedianReactionSec float64 `json:"medianReactionSec"`
	P90ReactionSec    float64 `json:"p90ReactionSec"`

	ProbesSent      int `json:"probesSent"`
	Switches        int `json:"switches"`
	OutagesDetected int `json:"outagesDetected"`
}

type overlayJSON struct {
	Nodes   int                 `json:"nodes"`
	Pairs   int                 `json:"pairs"`
	Epochs  int                 `json:"epochs"`
	Budgets []overlayBudgetJSON `json:"budgets"`
}

func (h *handler) overlay(w http.ResponseWriter, r *http.Request) {
	res, ok := memoized(h, w, r, "overlay", func(s *experiments.Suite) (experiments.OverlayResult, error) {
		return experiments.Overlay(s, s.Config.Seed)
	})
	if !ok {
		return
	}
	out := overlayJSON{Nodes: res.Nodes, Pairs: res.Pairs, Epochs: res.Epochs}
	for _, b := range res.Budgets {
		row := overlayBudgetJSON{
			ProbesPerSec: b.ProbesPerSec,
			AvailDefault: b.Default.Availability,
			AvailOverlay: b.Overlay.Availability,
			AvailOptimal: b.Optimal.Availability,
			RTTDefaultMs: b.Default.MeanRTTMs,
			RTTOverlayMs: b.Overlay.MeanRTTMs,
			RTTOptimalMs: b.Optimal.MeanRTTMs,
			RelayShare:   b.RelayShare,

			Reactions:       len(b.Reactions),
			ProbesSent:      b.ProbesSent,
			Switches:        b.Switches,
			OutagesDetected: b.OutagesDetected,
		}
		c := stats.NewCDF(b.Reactions)
		if med, err := c.Quantile(0.5); err == nil {
			row.MedianReactionSec = med
		}
		if p90, err := c.Quantile(0.9); err == nil {
			row.P90ReactionSec = p90
		}
		out.Budgets = append(out.Budgets, row)
	}
	writeJSON(w, out)
}

// suites reports the cache contents: which configurations are resident
// and whether each is ready or still building.
func (h *handler) suites(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, h.cache.snapshot())
}

func (h *handler) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>pathsel results</title></head><body>
<h1>The End-to-End Effects of Internet Path Selection — reproduction</h1>
<p>Default suite: {{.Preset}} preset, seed {{.Seed}}. Every /api
endpoint accepts <code>?seed=N&amp;preset=quick|full|scale</code> and builds
the requested suite on demand (cached, LRU-bounded).</p>
<ul>
<li><a href="/api/table1">Table 1: dataset characteristics</a></li>
<li><a href="/api/table/2">Table 2: RTT verdicts</a> · <a href="/api/table/3">Table 3: loss verdicts</a></li>
{{range .Figures}}<li><a href="/api/figure/{{.N}}">Figure {{.N}}</a></li>
{{end}}<li><a href="/api/overlay">Overlay exhibit: online path selection vs default vs offline optimum</a></li>
<li><a href="/api/multipath">Multipath exhibit: k-alternate path sets and AS disjointness</a></li>
<li><a href="/api/packetlevel">Packet-level exhibit: TCP over simulated links vs Mathis vs rounds model</a></li>
</ul>
<p>Operations: <a href="/api/suites">cached suites</a> ·
<a href="/metrics">metrics</a> · <a href="/healthz">health</a> ·
<a href="/debug/pprof/">pprof</a></p>
</body></html>`))

func (h *handler) index(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	err := indexTmpl.Execute(w, map[string]any{
		"Preset":  h.defaults.Preset.String(),
		"Seed":    h.defaults.Seed,
		"Figures": experiments.Figures,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// slug normalizes a series name for URLs.
func slug(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, s)
}
