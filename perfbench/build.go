package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"pathsel/internal/experiments"
	"pathsel/internal/snapshot"
)

// buildConfig is the measured build: the paper's seed at the quick
// preset, fixed so every run times the same work. A full-preset build
// takes ~9 s, so only two fit in a run, and its wall time varied from
// 6.3 s to 10.9 s between runs (the two planes' campaigns share two
// cores, and their order sets the critical path); the median of ~60
// quick builds, which run the same layers, holds steadier.
var buildConfig = experiments.Config{Seed: 1, Preset: experiments.Quick}

// buildWorkload times cold quick-preset suite builds.
type buildWorkload struct {
	last   *experiments.Suite
	lastMs float64
	digest [32]byte // the first measured build's snapshot digest
}

// setupBuilds is how many warm-up builds set-up runs; setup_s is their
// median. Five keep set-up short, so the run's time goes to the timed
// section, whose spread is gated.
const setupBuilds = 5

// setup warms the process with setupBuilds builds of buildConfig,
// each after a collection as in the timed section.
func (w *buildWorkload) setup(ctx context.Context, r *run) ([]float64, error) {
	var ts []float64
	for i := 0; i < setupBuilds; i++ {
		runtime.GC()
		t := time.Now()
		if _, err := experiments.BuildContext(ctx, buildConfig); err != nil {
			return nil, err
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return ts, nil
}

// measure builds the suite until d has passed (at least once), timing
// each build and checking each suite afterwards.
func (w *buildWorkload) measure(ctx context.Context, r *run, tr *tracer, d time.Duration) (measured, error) {
	var m measured
	var alloc float64
	start := time.Now()
	for tries := 0; tries == 0 || time.Since(start) < d; tries++ {
		w.last = nil
		runtime.GC()
		a0 := allocated()
		r.heap.window()
		sp := tr.start("experiments.BuildContext", 0, 0)
		t := time.Now()
		s, err := experiments.BuildContext(ctx, buildConfig)
		ms := float64(time.Since(t)) / 1e6
		sp.end()
		peak := r.heap.window()
		alloc += allocated() - a0
		if err == nil {
			err = w.check(ctx, s)
		}
		r.record(err)
		if err != nil {
			continue
		}
		m.opsMs = append(m.opsMs, ms)
		m.heapPeaks = append(m.heapPeaks, peak)
		w.last, w.lastMs = s, ms
	}
	m.ops = len(m.opsMs)
	m.allocBytes = alloc
	m.maxRPS = float64(m.ops) / (sum(m.opsMs) / 1e3)
	return m, nil
}

// table1Reference is Table 1 of buildConfig as the program produces
// it: hosts, measurements and rounded path coverage per dataset. At
// the quick preset every dataset covers all of its paths.
var table1Reference = map[string][3]int{
	"D2-NA": {8, 2805, 100}, "D2": {14, 9156, 100},
	"N2-NA": {8, 1365, 100}, "N2": {14, 4317, 100},
	"UW1": {13, 6081, 100}, "UW3": {16, 9328, 100},
	"UW4-A": {8, 13610, 100}, "UW4-B": {8, 1756, 100},
}

// check verifies a built suite: it re-encodes identically after a
// snapshot round trip, encodes to the same bytes as the run's first
// build (builds are deterministic), and Table 1 lists every dataset
// non-empty, fully covered and equal to the reference.
func (w *buildWorkload) check(ctx context.Context, s *experiments.Suite) error {
	data, err := snapshot.Encode(s)
	if err != nil {
		return fmt.Errorf("build check: encode: %w", err)
	}
	back, err := snapshot.Restore(ctx, data, 0)
	if err != nil {
		return fmt.Errorf("build check: restore: %w", err)
	}
	again, err := snapshot.Encode(back)
	if err != nil {
		return fmt.Errorf("build check: re-encode: %w", err)
	}
	if !bytes.Equal(data, again) {
		return fmt.Errorf("build check: suite re-encodes differently after restore (%d vs %d bytes)", len(data), len(again))
	}
	sum := sha256.Sum256(data)
	if w.digest == ([32]byte{}) {
		w.digest = sum
	} else if sum != w.digest {
		return fmt.Errorf("build check: suite differs from the run's first build of the same configuration")
	}
	rows := experiments.Table1(s)
	if len(rows) != len(table1Reference) {
		return fmt.Errorf("build check: Table 1 has %d rows, want %d", len(rows), len(table1Reference))
	}
	for _, c := range rows {
		got := [3]int{c.Hosts, c.Measurements, int(math.Round(c.PercentCovered))}
		if want := table1Reference[c.Name]; c.Hosts == 0 || c.Measurements == 0 || got != want {
			return fmt.Errorf("build check: Table 1 row %s: hosts, measurements, %%covered = %v, want %v",
				c.Name, got, want)
		}
	}
	return nil
}

func (w *buildWorkload) layers(ctx context.Context, r *run, tr *tracer) error {
	if w.last == nil {
		return fmt.Errorf("no suite was built")
	}
	return probeLayers(ctx, r, tr, w.last, w.lastMs/1e3)
}

func (w *buildWorkload) close() {}
