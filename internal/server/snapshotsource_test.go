package server

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"pathsel/internal/experiments"
	"pathsel/internal/obs"
	"pathsel/internal/snapshot"
)

// TestSnapshotSourceWarmPath walks the full snapshot lifecycle through
// the serving stack: cold build persists a snapshot, the next process
// (fresh source over the same dir) decodes instead of rebuilding, a
// corrupted file falls back to a rebuild that replaces it — with every
// transition visible in the snapshot counters and on /metrics.
func TestSnapshotSourceWarmPath(t *testing.T) {
	dir := t.TempDir()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg := experiments.Config{Seed: 1, Preset: experiments.Quick}

	var builds atomic.Int64
	counting := func(ctx context.Context, c experiments.Config) (*experiments.Suite, error) {
		builds.Add(1)
		return experiments.BuildContext(ctx, c)
	}

	// Cold process: miss, build, persist.
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	source := NewSnapshotSource(dir, counting, m, logger)
	cold, err := source(context.Background(), cfg)
	if err != nil {
		t.Fatalf("cold build: %v", err)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("cold path ran %d builds, want 1", got)
	}
	if got := m.snapshotPersists.Value(); got != 1 {
		t.Fatalf("snapshotPersists = %d, want 1", got)
	}
	if got := m.snapshotLoads.Value(); got != 0 {
		t.Fatalf("snapshotLoads = %d after cold build, want 0", got)
	}
	file := filepath.Join(dir, snapshot.FileName(cfg))
	if _, err := os.Stat(file); err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}

	// Warm process: decode, no build.
	reg2 := obs.NewRegistry()
	m2 := NewMetrics(reg2)
	source2 := NewSnapshotSource(dir, counting, m2, logger)
	warm, err := source2(context.Background(), cfg)
	if err != nil {
		t.Fatalf("warm load: %v", err)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("warm path ran a build (total %d), want decode only", got)
	}
	if got := m2.snapshotLoads.Value(); got != 1 {
		t.Fatalf("snapshotLoads = %d, want 1", got)
	}
	if got := m2.decodeDuration.Count(); got != 1 {
		t.Fatalf("decodeDuration observations = %d, want 1", got)
	}

	// The restored suite serves figures byte-identically to the built one.
	hCold := NewHandler(readyCache(t, cfg, cold), cfg, obs.NewRegistry())
	hWarm := NewHandler(readyCache(t, cfg, warm), cfg, obs.NewRegistry())
	for _, path := range []string{"/api/figure/2", "/api/table1", "/api/table/2"} {
		a, b := get(t, hCold, path), get(t, hWarm, path)
		if a.Code != http.StatusOK || a.Body.String() != b.Body.String() {
			t.Errorf("%s: restored response differs from built (status %d/%d)", path, a.Code, b.Code)
		}
	}

	// Corrupted snapshot: load error counted, rebuild, re-persist.
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg3 := obs.NewRegistry()
	m3 := NewMetrics(reg3)
	source3 := NewSnapshotSource(dir, counting, m3, logger)
	if _, err := source3(context.Background(), cfg); err != nil {
		t.Fatalf("rebuild after corruption: %v", err)
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("corruption fallback ran %d total builds, want 2", got)
	}
	if got := m3.snapshotLoadErrors.Value(); got != 1 {
		t.Fatalf("snapshotLoadErrors = %d, want 1", got)
	}
	if got := m3.snapshotPersists.Value(); got != 1 {
		t.Fatalf("re-persist after corruption: snapshotPersists = %d, want 1", got)
	}

	// All snapshot metrics are exported on /metrics next to the
	// build-duration histogram they should be compared against.
	h := NewHandler(NewSuiteCache(2, 2, 0, source3, m3), cfg, reg3)
	body := get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		"suite_snapshot_loads_total",
		"suite_snapshot_load_errors_total 1",
		"suite_snapshot_persists_total 1",
		"suite_snapshot_persist_errors_total",
		"suite_decode_duration_seconds_bucket",
		"suite_build_duration_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// readyCache returns a suite cache pre-populated with s, so handlers
// can serve without building.
func readyCache(t *testing.T, cfg experiments.Config, s *experiments.Suite) *SuiteCache {
	t.Helper()
	cache := NewSuiteCache(2, 2, 0,
		func(context.Context, experiments.Config) (*experiments.Suite, error) { return s, nil },
		NewMetrics(obs.NewRegistry()))
	if _, err := cache.Get(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	return cache
}

// TestSnapshotSourceUnknownHostRebuilds: a snapshot with a valid
// checksum whose datasets name a host the regenerated topology lacks
// (a substrate change that missed its format version bump) must not
// crash the worker. The source counts a load error, rebuilds, and
// replaces the file with one that loads.
func TestSnapshotSourceUnknownHostRebuilds(t *testing.T) {
	cfg := experiments.Config{Seed: 1, Preset: experiments.Quick}
	built, err := experiments.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := snapshot.Encode(built)
	if err != nil {
		t.Fatal(err)
	}
	// A decoded copy, so the mutation leaves built untouched.
	_, primary, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	primary["D2"].Hosts[0] = 99999
	dir := t.TempDir()
	if _, err := snapshot.Write(dir, &experiments.Suite{
		Config: cfg,
		UW1:    primary["UW1"], UW3: primary["UW3"], UW4A: primary["UW4-A"], UW4B: primary["UW4-B"],
		D2: primary["D2"], N2: primary["N2"],
	}); err != nil {
		t.Fatal(err)
	}

	var builds atomic.Int64
	build := func(context.Context, experiments.Config) (*experiments.Suite, error) {
		builds.Add(1)
		return built, nil
	}
	m := NewMetrics(obs.NewRegistry())
	source := NewSnapshotSource(dir, build, m, slog.New(slog.NewTextHandler(io.Discard, nil)))
	s, err := source(context.Background(), cfg)
	if err != nil || s != built {
		t.Fatalf("source = (%p, %v), want the rebuilt suite", s, err)
	}
	if got := m.snapshotLoadErrors.Value(); got != 1 {
		t.Errorf("snapshotLoadErrors = %d, want 1", got)
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("ran %d builds, want 1", got)
	}
	if got := m.snapshotPersists.Value(); got != 1 {
		t.Errorf("snapshotPersists = %d, want 1", got)
	}
	if _, err := snapshot.Load(context.Background(), dir, cfg); err != nil {
		t.Errorf("the replaced snapshot does not load: %v", err)
	}
}

// TestSnapshotSourceEmptyDirPassthrough checks that an empty -snapshot-dir
// leaves the build path untouched.
func TestSnapshotSourceEmptyDirPassthrough(t *testing.T) {
	called := false
	build := func(context.Context, experiments.Config) (*experiments.Suite, error) {
		called = true
		return nil, context.Canceled
	}
	source := NewSnapshotSource("", build, nil, nil)
	source(context.Background(), experiments.Config{}) //nolint:errcheck
	if !called {
		t.Fatal("passthrough source did not call build")
	}
}
