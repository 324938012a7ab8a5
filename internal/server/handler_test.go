package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pathsel/internal/experiments"
	"pathsel/internal/obs"
)

var (
	serveOnce sync.Once
	served    http.Handler
	servedErr error
)

// testHandler returns a handler backed by a real suite cache, with the
// default quick suite built once and shared across tests.
func testHandler(t *testing.T) http.Handler {
	t.Helper()
	serveOnce.Do(func() {
		reg := obs.NewRegistry()
		cache := NewSuiteCache(4, 2, 0, experiments.BuildContext, NewMetrics(reg))
		defaults := experiments.Config{Seed: 1, Preset: experiments.Quick}
		if _, servedErr = cache.Get(context.Background(), defaults); servedErr != nil {
			return
		}
		served = NewHandler(cache, defaults, reg)
	})
	if servedErr != nil {
		t.Fatalf("Build: %v", servedErr)
	}
	return served
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestIndex(t *testing.T) {
	h := testHandler(t)
	rec := get(t, h, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "Figure 16") || !strings.Contains(body, "Table 1") {
		t.Errorf("index missing links:\n%s", body)
	}
	if !strings.Contains(body, "/metrics") || !strings.Contains(body, "/api/suites") {
		t.Errorf("index missing operations links:\n%s", body)
	}
}

func TestTable1JSON(t *testing.T) {
	h := testHandler(t)
	rec := get(t, h, "/api/table1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var rows []struct {
		Name         string
		Hosts        int
		Measurements int
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Name != "D2-NA" || rows[0].Hosts == 0 {
		t.Errorf("unexpected first row %+v", rows[0])
	}
}

func TestVerdictTables(t *testing.T) {
	h := testHandler(t)
	for _, n := range []string{"2", "3"} {
		rec := get(t, h, "/api/table/"+n)
		if rec.Code != http.StatusOK {
			t.Fatalf("table %s: status %d", n, rec.Code)
		}
		var rows []struct {
			Dataset       string  `json:"dataset"`
			Better        float64 `json:"betterPct"`
			Indeterminate float64 `json:"indeterminatePct"`
			Worse         float64 `json:"worsePct"`
			BothZero      float64 `json:"bothZeroPct"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
			t.Fatalf("table %s: bad JSON: %v", n, err)
		}
		if len(rows) != 4 {
			t.Fatalf("table %s: %d rows", n, len(rows))
		}
		sum := rows[0].Better + rows[0].Indeterminate + rows[0].Worse + rows[0].BothZero
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("table %s: percentages sum to %f", n, sum)
		}
	}
	if rec := get(t, h, "/api/table/9"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown table gave status %d", rec.Code)
	}
}

func TestEveryFigureServes(t *testing.T) {
	h := testHandler(t)
	for _, n := range []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16"} {
		rec := get(t, h, "/api/figure/"+n)
		if rec.Code != http.StatusOK {
			t.Fatalf("figure %s: status %d: %s", n, rec.Code, rec.Body.String())
		}
		var series []struct {
			Name string `json:"name"`
			N    int    `json:"n"`
			CDF  string `json:"cdf"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &series); err != nil {
			t.Fatalf("figure %s: bad JSON: %v", n, err)
		}
		if len(series) == 0 {
			t.Fatalf("figure %s: no series", n)
		}
		for _, sr := range series {
			if sr.N == 0 {
				t.Errorf("figure %s series %s empty", n, sr.Name)
			}
		}
	}
	if rec := get(t, h, "/api/figure/99"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown figure gave status %d", rec.Code)
	}
}

func TestCDFEndpoint(t *testing.T) {
	h := testHandler(t)
	// Discover a series name from figure 1's JSON.
	rec := get(t, h, "/api/figure/1")
	var series []struct {
		CDF string `json:"cdf"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &series); err != nil {
		t.Fatal(err)
	}
	rec = get(t, h, series[0].CDF)
	if rec.Code != http.StatusOK {
		t.Fatalf("cdf endpoint %s: status %d", series[0].CDF, rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) < 10 {
		t.Fatalf("only %d CDF lines", len(lines))
	}
	for _, ln := range lines {
		if len(strings.Split(ln, "\t")) != 2 {
			t.Fatalf("line %q not 2 columns", ln)
		}
	}
	// Final fraction reaches 1.
	if !strings.HasSuffix(lines[len(lines)-1], "1.0000") {
		t.Errorf("last line %q should reach 1.0", lines[len(lines)-1])
	}
	if rec := get(t, h, "/api/cdf/1/el-chupacabra"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown series gave status %d", rec.Code)
	}
}

func TestOverlayEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("overlay exhibit replays hours of control loop")
	}
	h := testHandler(t)
	rec := get(t, h, "/api/overlay")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out overlayJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Nodes == 0 || out.Pairs == 0 || out.Epochs < 2 {
		t.Fatalf("degenerate exhibit: %+v", out)
	}
	if len(out.Budgets) != 3 {
		t.Fatalf("got %d budgets, want 3", len(out.Budgets))
	}
	for _, b := range out.Budgets {
		if !(b.AvailDefault < b.AvailOverlay && b.AvailOverlay < b.AvailOptimal) {
			t.Errorf("budget %g: availability not ordered: %+v", b.ProbesPerSec, b)
		}
		if b.Reactions == 0 || b.MedianReactionSec <= 0 {
			t.Errorf("budget %g: no reaction times: %+v", b.ProbesPerSec, b)
		}
	}
	// The memoized second hit is byte-identical.
	if again := get(t, h, "/api/overlay"); again.Body.String() != rec.Body.String() {
		t.Error("repeated overlay request differs")
	}
}

func TestMultipathEndpoint(t *testing.T) {
	h := testHandler(t)
	rec := get(t, h, "/api/multipath")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out experiments.MultipathResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Pairs == 0 || len(out.Curve) != experiments.MultipathK {
		t.Fatalf("degenerate exhibit: %+v", out)
	}
	if len(out.Strategies) != 3 {
		t.Fatalf("got %d strategy rows, want 3", len(out.Strategies))
	}
	// The memoized second hit is byte-identical.
	if again := get(t, h, "/api/multipath"); again.Body.String() != rec.Body.String() {
		t.Error("repeated multipath request differs")
	}
}

func TestBadQueryParams(t *testing.T) {
	h := testHandler(t)
	for _, path := range []string{
		"/api/table1?seed=abc",
		"/api/table1?preset=bogus",
		"/api/figure/1?seed=1.5",
		"/api/cdf/1/x?preset=medium",
		"/api/table/2?seed=",
	} {
		rec := get(t, h, path)
		want := http.StatusBadRequest
		if strings.Contains(path, "seed=&") || strings.HasSuffix(path, "seed=") {
			// Empty values fall back to defaults; that request is valid.
			want = http.StatusOK
		}
		if rec.Code != want {
			t.Errorf("%s: status %d, want %d: %s", path, rec.Code, want, rec.Body.String())
		}
	}
}

// TestQueryParamsReachBuild proves ?seed and ?preset select the suite
// configuration handed to the build function.
func TestQueryParamsReachBuild(t *testing.T) {
	var mu sync.Mutex
	var got []experiments.Config
	build := func(ctx context.Context, cfg experiments.Config) (*experiments.Suite, error) {
		mu.Lock()
		got = append(got, cfg)
		mu.Unlock()
		return nil, context.DeadlineExceeded // don't cache; config capture is the point
	}
	reg := obs.NewRegistry()
	cache := NewSuiteCache(4, 4, 1, build, NewMetrics(reg))
	h := NewHandler(cache, experiments.Config{Seed: 1, Preset: experiments.Quick}, reg)

	get(t, h, "/api/table1?seed=42&preset=full")
	get(t, h, "/api/table1") // defaults
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("build called %d times", len(got))
	}
	if got[0].Seed != 42 || got[0].Preset != experiments.Full {
		t.Errorf("first build config %+v, want seed 42 full", got[0])
	}
	if got[1].Seed != 1 || got[1].Preset != experiments.Quick {
		t.Errorf("default build config %+v, want seed 1 quick", got[1])
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	h := testHandler(t)
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"suite_cache_misses_total", "suite_builds_inflight", "suite_build_duration_seconds_bucket"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s:\n%s", want, body)
		}
	}
}

func TestSuitesEndpoint(t *testing.T) {
	h := testHandler(t)
	rec := get(t, h, "/api/suites")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var rows []suiteStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no cached suites reported")
	}
	found := false
	for _, row := range rows {
		if row.Seed == 1 && row.Preset == "quick" && row.State == "ready" {
			found = true
		}
	}
	if !found {
		t.Errorf("default suite missing from %+v", rows)
	}
}

// TestDeterministicAcrossCacheState checks the acceptance invariant:
// a response served from the warm cache is byte-identical to the same
// request against a freshly built suite.
func TestDeterministicAcrossCacheState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second suite")
	}
	warm := testHandler(t)
	first := get(t, warm, "/api/figure/2")
	again := get(t, warm, "/api/figure/2") // memoized path
	if first.Body.String() != again.Body.String() {
		t.Fatal("repeated request against warm cache differs")
	}

	reg := obs.NewRegistry()
	cache := NewSuiteCache(1, 1, 0, experiments.BuildContext, NewMetrics(reg))
	fresh := NewHandler(cache, experiments.Config{Seed: 1, Preset: experiments.Quick}, reg)
	cold := get(t, fresh, "/api/figure/2")
	if cold.Code != http.StatusOK {
		t.Fatalf("fresh build: status %d: %s", cold.Code, cold.Body.String())
	}
	if first.Body.String() != cold.Body.String() {
		t.Errorf("warm-cache response differs from fresh build:\nwarm: %s\ncold: %s",
			first.Body.String(), cold.Body.String())
	}
}

func TestConcurrentRequests(t *testing.T) {
	h := testHandler(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := []string{"1", "3", "9", "15"}[i%4]
			rec := get(t, h, "/api/figure/"+n)
			if rec.Code != http.StatusOK {
				t.Errorf("figure %s: status %d", n, rec.Code)
			}
		}(i)
	}
	wg.Wait()
}

// TestFigureLinksUseParsedConfig: the CDF links of a figure carry the
// configuration the request resolved to, re-encoded, so a seed written
// as "%2B1" ("+1") links as seed=1 and the link serves.
func TestFigureLinksUseParsedConfig(t *testing.T) {
	h := testHandler(t)
	rec := get(t, h, "/api/figure/1?seed=%2B1&preset=quick")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var series []struct {
		CDF string `json:"cdf"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &series); err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("no series")
	}
	for _, sr := range series {
		if !strings.HasSuffix(sr.CDF, "?preset=quick&seed=1") {
			t.Errorf("link %q does not carry the parsed configuration", sr.CDF)
		}
	}
	if rec := get(t, h, series[0].CDF); rec.Code != http.StatusOK {
		t.Errorf("link %s: status %d: %s", series[0].CDF, rec.Code, rec.Body.String())
	}
}
