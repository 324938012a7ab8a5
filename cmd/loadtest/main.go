// Command loadtest replays a deterministic request mix against the
// suite-serving stack and asserts committed latency and error budgets,
// so serving regressions fail CI instead of surfacing in production.
//
// By default it builds the full fleet in-process — a shard router in
// front of two workers, each with its own suite cache — and drives it
// through real HTTP (httptest listeners), exercising consistent-hash
// placement, forwarding and worker caches exactly as a deployed fleet
// would. With -url it targets a live deployment instead.
//
// The run has two passes: an unmeasured warmup that touches every
// distinct request once (building each worker's suites and memoizing
// figure payloads, the steady state a serving fleet lives in), then the
// measured replay whose latencies and error rate are checked against
// -p99 and -error-budget. The report is written as JSON with -out; the
// committed baseline lives in LOAD_10.json.
//
// Usage:
//
//	loadtest [-url URL] [-requests N] [-concurrency N] [-seed N]
//	         [-stack-workers N] [-p99 D] [-error-budget F] [-out FILE]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"time"

	"pathsel/internal/experiments"
	"pathsel/internal/loadgen"
	"pathsel/internal/obs"
	"pathsel/internal/server"
)

// reportFile is the JSON document committed as the load-test baseline.
type reportFile struct {
	Target      string         `json:"target"`
	Seed        int64          `json:"mixSeed"`
	Requests    int            `json:"requests"`
	Concurrency int            `json:"concurrency"`
	Warmup      int            `json:"warmupRequests"`
	P99BudgetMs float64        `json:"p99BudgetMs"`
	ErrorBudget float64        `json:"errorBudget"`
	Pass        bool           `json:"pass"`
	Report      loadgen.Report `json:"report"`
}

func main() {
	url := flag.String("url", "", "target base URL (empty = in-process router + workers)")
	requests := flag.Int("requests", 400, "measured requests to replay")
	concurrency := flag.Int("concurrency", 8, "concurrent replay workers")
	seed := flag.Int64("seed", 1, "request-mix generator seed")
	stackWorkers := flag.Int("stack-workers", 2, "worker processes in the in-process fleet")
	p99 := flag.Duration("p99", 500*time.Millisecond, "p99 latency budget (0 disables)")
	errorBudget := flag.Float64("error-budget", 0.01, "max tolerated error rate (negative disables)")
	out := flag.String("out", "", "write the JSON report to this file")
	flag.Parse()

	ctx := context.Background()
	target := *url
	if target == "" {
		stack, cleanup := inProcessStack(*stackWorkers)
		defer cleanup()
		target = stack
	}

	mix := loadgen.DefaultMix()
	reqs, err := mix.Requests(*seed, *requests)
	if err != nil {
		log.Fatalf("loadtest: %v", err)
	}

	// Warmup: every distinct request once, so the measured pass sees
	// the fleet's steady state (suites built, figure payloads memoized)
	// rather than timing one-off cold builds.
	distinct := map[loadgen.Request]bool{}
	warm := []loadgen.Request{}
	for _, r := range reqs {
		if !distinct[r] {
			distinct[r] = true
			warm = append(warm, r)
		}
	}
	runner := &loadgen.Runner{BaseURL: target, Concurrency: *concurrency}
	log.Printf("warmup: %d distinct requests against %s", len(warm), target)
	warmStart := time.Now()
	for _, r := range runner.Run(ctx, warm) {
		if r.Err != nil || r.Status >= 500 {
			log.Fatalf("loadtest: warmup request %s failed: status %d err %v", r.Path, r.Status, r.Err)
		}
	}
	log.Printf("warmup done in %v; replaying %d requests at concurrency %d",
		time.Since(warmStart).Round(time.Millisecond), len(reqs), *concurrency)

	report := loadgen.Summarize(runner.Run(ctx, reqs))
	checkErr := report.Check(*p99, *errorBudget)

	doc := reportFile{
		Target:      targetLabel(*url, *stackWorkers),
		Seed:        *seed,
		Requests:    *requests,
		Concurrency: *concurrency,
		Warmup:      len(warm),
		P99BudgetMs: p99.Seconds() * 1e3,
		ErrorBudget: *errorBudget,
		Pass:        checkErr == nil,
		Report:      report,
	}
	log.Printf("p50 %.1fms  p90 %.1fms  p99 %.1fms  max %.1fms  errors %d/%d (%.4f)",
		report.P50Ms, report.P90Ms, report.P99Ms, report.MaxMs,
		report.Errors, report.Requests, report.ErrorRate)
	if *out != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatalf("loadtest: %v", err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			log.Fatalf("loadtest: %v", err)
		}
		log.Printf("report written to %s", *out)
	}
	if checkErr != nil {
		log.Fatalf("loadtest: FAIL: %v", checkErr)
	}
	log.Print("loadtest: PASS")
}

func targetLabel(url string, workers int) string {
	if url != "" {
		return url
	}
	return fmt.Sprintf("in-process router + %d workers", workers)
}

// inProcessStack assembles the real serving fleet inside this process:
// N workers, each a full handler over its own suite cache, fronted by
// the shard router — all listening on loopback httptest servers so the
// replay crosses real HTTP.
func inProcessStack(workers int) (baseURL string, cleanup func()) {
	if workers < 1 {
		workers = 1
	}
	defaults := experiments.Config{Seed: 1, Preset: experiments.Quick}
	var servers []*httptest.Server
	var backends []string
	for i := 0; i < workers; i++ {
		reg := obs.NewRegistry()
		cache := server.NewSuiteCache(8, 2, 0, experiments.BuildContext, server.NewMetrics(reg))
		srv := httptest.NewServer(server.NewHandler(cache, defaults, reg))
		servers = append(servers, srv)
		backends = append(backends, srv.URL)
	}
	rt := server.NewRouter(backends, defaults, 2, obs.NewRegistry())
	front := httptest.NewServer(rt)
	servers = append(servers, front)
	return front.URL, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}
