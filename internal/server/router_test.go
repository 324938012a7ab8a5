package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pathsel/internal/experiments"
	"pathsel/internal/obs"
	"pathsel/internal/shard"
)

// stubWorker is a fake backend that identifies itself in every
// response, so tests can see where the router sent a request.
func stubWorker(name string, status int) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprintln(w, "ok")
		case "/api/suites":
			writeJSON(w, []suiteStatus{{Seed: 1, Preset: "quick", State: "ready"}})
		default:
			w.WriteHeader(status)
			fmt.Fprint(w, name)
		}
	}))
}

func testRouter(t *testing.T, backends ...string) *Router {
	t.Helper()
	defaults := experiments.Config{Seed: 1, Preset: experiments.Quick}
	return NewRouter(backends, defaults, 2, obs.NewRegistry())
}

// ownerOf replicates the router's placement so tests can construct
// requests that land on a specific worker.
func ownerOf(seed int64, backends []string) string {
	r := shard.New(0)
	for _, b := range backends {
		r.Add(b)
	}
	return r.Lookup(shard.Key(seed, "quick"), 1)[0]
}

func TestRouterForwardsConsistently(t *testing.T) {
	w1 := stubWorker("w1", http.StatusOK)
	defer w1.Close()
	w2 := stubWorker("w2", http.StatusOK)
	defer w2.Close()
	rt := testRouter(t, w1.URL, w2.URL)

	hit := map[string]bool{}
	for seed := 0; seed < 40; seed++ {
		path := fmt.Sprintf("/api/table1?seed=%d", seed)
		first := get(t, rt, path)
		if first.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, first.Code, first.Body.String())
		}
		again := get(t, rt, path)
		if first.Body.String() != again.Body.String() {
			t.Fatalf("seed %d routed to %s then %s", seed, first.Body.String(), again.Body.String())
		}
		if got, want := first.Body.String(), first.Header().Get("X-Pathsel-Worker"); (got == "w1") != (want == w1.URL) {
			t.Errorf("seed %d: body %s but X-Pathsel-Worker %s", seed, got, want)
		}
		hit[first.Body.String()] = true
	}
	if !hit["w1"] || !hit["w2"] {
		t.Errorf("40 seeds all routed to one worker: %v", hit)
	}
}

func TestRouterRetriesOntoSuccessor(t *testing.T) {
	sick := stubWorker("sick", http.StatusServiceUnavailable)
	defer sick.Close()
	well := stubWorker("well", http.StatusOK)
	defer well.Close()
	rt := testRouter(t, sick.URL, well.URL)

	// Every request must end on the healthy worker, whichever owner the
	// ring picked; keys owned by the sick worker arrive via retry.
	retriedSome := false
	for seed := 0; seed < 20; seed++ {
		rec := get(t, rt, fmt.Sprintf("/api/figure/1?seed=%d", seed))
		if rec.Code != http.StatusOK || rec.Body.String() != "well" {
			t.Fatalf("seed %d: status %d body %q", seed, rec.Code, rec.Body.String())
		}
		if ownerOf(int64(seed), []string{sick.URL, well.URL}) == sick.URL {
			retriedSome = true
		}
	}
	if !retriedSome {
		t.Skip("ring gave every test key to the healthy worker; widen the seed range")
	}
	metrics := get(t, rt, "/metrics").Body.String()
	if !strings.Contains(metrics, "router_retries_total") {
		t.Errorf("metrics missing retry counter:\n%s", metrics)
	}
}

func TestRouterRetriesDeadTransport(t *testing.T) {
	dead := stubWorker("dead", http.StatusOK)
	dead.Close() // connection refused from the start
	well := stubWorker("well", http.StatusOK)
	defer well.Close()
	rt := testRouter(t, dead.URL, well.URL)

	for seed := 0; seed < 20; seed++ {
		rec := get(t, rt, fmt.Sprintf("/api/table1?seed=%d", seed))
		if rec.Code != http.StatusOK || rec.Body.String() != "well" {
			t.Fatalf("seed %d: status %d body %q", seed, rec.Code, rec.Body.String())
		}
	}
}

// TestRouterPassesThrough500 checks that a deterministic compute error
// is NOT retried: every worker would fail identically, so the first
// worker's 500 goes straight to the client.
func TestRouterPassesThrough500(t *testing.T) {
	buggy := stubWorker("buggy", http.StatusInternalServerError)
	defer buggy.Close()
	fine := stubWorker("fine", http.StatusOK)
	defer fine.Close()
	rt := testRouter(t, buggy.URL, fine.URL)

	// Find a seed owned by the buggy worker.
	for seed := 0; seed < 100; seed++ {
		if ownerOf(int64(seed), []string{buggy.URL, fine.URL}) != buggy.URL {
			continue
		}
		rec := get(t, rt, fmt.Sprintf("/api/table1?seed=%d", seed))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("seed %d: status %d, want 500 passed through", seed, rec.Code)
		}
		if rec.Body.String() != "buggy" {
			t.Fatalf("500 was retried onto %q", rec.Body.String())
		}
		return
	}
	t.Fatal("no seed in 0..99 owned by buggy worker")
}

// TestRouterPanickingWorker checks that a handler panic on a worker
// reaches the client as one 500: the worker recovers it and counts it,
// and the router passes the 500 through instead of replaying the same
// panic on the next worker.
func TestRouterPanickingWorker(t *testing.T) {
	workerReg := obs.NewRegistry()
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/table1", func(http.ResponseWriter, *http.Request) {
		calls.Add(1)
		panic("deterministic compute bug")
	})
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	a := httptest.NewServer(obs.Instrument(workerReg, quiet, mux))
	defer a.Close()
	b := httptest.NewServer(obs.Instrument(workerReg, quiet, mux))
	defer b.Close()
	routerReg := obs.NewRegistry()
	rt := NewRouter([]string{a.URL, b.URL}, experiments.Config{Seed: 1, Preset: experiments.Quick}, 2, routerReg)

	rec := get(t, rt, "/api/table1")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("handler ran %d times, want 1 forward attempt", n)
	}
	if n := routerReg.Counter("router_retries_total", "").Value(); n != 0 {
		t.Errorf("router_retries_total = %d, want 0", n)
	}
	if n := workerReg.Counter("http_panics_total", "", "route", "GET /api/table1").Value(); n != 1 {
		t.Errorf("http_panics_total = %d, want 1", n)
	}
}

// TestRouterTruncatedWorkerBody checks that a worker which dies
// mid-body reaches the router's client as a broken response, not as a
// clean 200 carrying the fragment, and that the router counts it.
func TestRouterTruncatedWorkerBody(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1000")
		fmt.Fprint(w, `{"partial":`)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer worker.Close()
	reg := obs.NewRegistry()
	rt := NewRouter([]string{worker.URL}, experiments.Config{Seed: 1, Preset: experiments.Quick}, 2, reg)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	front := httptest.NewServer(obs.Instrument(reg, quiet, rt))
	defer front.Close()

	// The abort may come before or after the status line is flushed:
	// either the request or the body read must fail.
	if resp, err := http.Get(front.URL + "/api/table1"); err == nil {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatalf("status %d, body %q read cleanly; want a broken response", resp.StatusCode, body)
		}
	}
	if n := reg.Counter("router_truncated_total", "").Value(); n != 1 {
		t.Errorf("router_truncated_total = %d, want 1", n)
	}
}

func TestRouterAllWorkersFailing(t *testing.T) {
	a := stubWorker("a", http.StatusServiceUnavailable)
	defer a.Close()
	b := stubWorker("b", http.StatusServiceUnavailable)
	defer b.Close()
	rt := testRouter(t, a.URL, b.URL)
	rec := get(t, rt, "/api/table1")
	if rec.Code != http.StatusServiceUnavailable && rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502/503 when the whole fleet is failing", rec.Code)
	}
}

func TestRouterHealthCheck(t *testing.T) {
	live := stubWorker("live", http.StatusOK)
	defer live.Close()
	gone := stubWorker("gone", http.StatusOK)
	gone.Close()
	rt := testRouter(t, live.URL, gone.URL)

	rt.CheckAll(context.Background())
	rec := get(t, rt, "/api/workers")
	var rows []workerRow
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d worker rows", len(rows))
	}
	for _, row := range rows {
		want := row.Worker == live.URL
		if row.Up != want {
			t.Errorf("worker %s up=%v, want %v", row.Worker, row.Up, want)
		}
	}
	// Liveness also shows on the index and in metrics.
	if body := get(t, rt, "/").Body.String(); !strings.Contains(body, "down") {
		t.Errorf("index does not show the dead worker:\n%s", body)
	}
	if body := get(t, rt, "/metrics").Body.String(); !strings.Contains(body, "router_worker_up") {
		t.Errorf("metrics missing router_worker_up:\n%s", body)
	}
}

func TestRouterSuitesFanOut(t *testing.T) {
	w1 := stubWorker("w1", http.StatusOK)
	defer w1.Close()
	w2 := stubWorker("w2", http.StatusOK)
	defer w2.Close()
	rt := testRouter(t, w1.URL, w2.URL)

	rec := get(t, rt, "/api/suites")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var rows []routedSuiteStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d merged rows, want one per worker", len(rows))
	}
	workers := map[string]bool{}
	for _, row := range rows {
		if row.Seed != 1 || row.State != "ready" {
			t.Errorf("unexpected row %+v", row)
		}
		workers[row.Worker] = true
	}
	if !workers[w1.URL] || !workers[w2.URL] {
		t.Errorf("rows not annotated with both workers: %+v", rows)
	}
}

func TestRouterBadQueryNotForwarded(t *testing.T) {
	w1 := stubWorker("w1", http.StatusOK)
	defer w1.Close()
	rt := testRouter(t, w1.URL)
	rec := get(t, rt, "/api/table1?preset=bogus")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 before any forward", rec.Code)
	}
}

// TestRouterEndToEndByteIdentical drives a real worker (the shared
// quick-suite handler) through the router and checks the proxied
// figure response is byte-identical to a direct request.
func TestRouterEndToEndByteIdentical(t *testing.T) {
	h := testHandler(t)
	w1 := httptest.NewServer(h)
	defer w1.Close()
	w2 := httptest.NewServer(h)
	defer w2.Close()
	rt := testRouter(t, w1.URL, w2.URL)

	direct := get(t, h, "/api/figure/3?seed=1&preset=quick")
	routed := get(t, rt, "/api/figure/3?seed=1&preset=quick")
	if routed.Code != http.StatusOK {
		t.Fatalf("routed status %d: %s", routed.Code, routed.Body.String())
	}
	if routed.Body.String() != direct.Body.String() {
		t.Error("routed figure response differs from direct response")
	}
	if ct := routed.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Content-Type %q not relayed", ct)
	}
	if routed.Header().Get("X-Pathsel-Worker") == "" {
		t.Error("router did not tag the serving worker")
	}
}

// TestCopyResponseThroughInstrument relays a body larger than the copy
// buffer through the instrumented writer and checks the client gets it
// whole and the access log counts every byte.
func TestCopyResponseThroughInstrument(t *testing.T) {
	body := strings.Repeat("0123456789", 10<<10)
	var logs strings.Builder
	h := obs.Instrument(obs.NewRegistry(), slog.New(slog.NewJSONHandler(&logs, nil)),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The struct hides strings.Reader's WriteTo, as a network
			// body would, so the copy goes through the buffer.
			copyResponse(w, &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
				Body: io.NopCloser(struct{ io.Reader }{strings.NewReader(body)})}, "w1")
		}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/figure/2", nil))
	if rec.Body.String() != body {
		t.Fatalf("relayed %d bytes, want %d", rec.Body.Len(), len(body))
	}
	var entry struct{ Bytes int }
	if err := json.Unmarshal([]byte(logs.String()), &entry); err != nil {
		t.Fatalf("access log %q: %v", logs.String(), err)
	}
	if entry.Bytes != len(body) {
		t.Errorf("access log bytes = %d, want %d", entry.Bytes, len(body))
	}
}
