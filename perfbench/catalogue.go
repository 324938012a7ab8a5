package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"pathsel/internal/core"
	"pathsel/internal/experiments"
)

// exhibit is one entry of the cmd/figures catalogue.
type exhibit struct {
	id    string
	paper bool // Tables 1-3 and Figures 1-16; false for extensions
	run   func(s *experiments.Suite) (any, error)
}

func series(fn func(*experiments.Suite) ([]experiments.Series, error)) func(*experiments.Suite) (any, error) {
	return func(s *experiments.Suite) (any, error) { return fn(s) }
}

// catalogue is the exhibit list cmd/figures runs, in its order, less
// CauseAblation and SeedSensitivity, which rebuild whole suites and so
// measure what the build workload already covers.
var catalogue = []exhibit{
	{"table1", true, func(s *experiments.Suite) (any, error) { return experiments.Table1(s), nil }},
	{"figure1", true, series(experiments.Figure1)},
	{"figure2", true, series(experiments.Figure2)},
	{"figure3", true, series(experiments.Figure3)},
	{"figure4", true, series(experiments.Figure4)},
	{"figure5", true, series(experiments.Figure5)},
	{"figure6", true, series(experiments.Figure6)},
	{"figure9", true, series(experiments.Figure9)},
	{"figure10", true, series(experiments.Figure10)},
	{"figure11", true, series(experiments.Figure11)},
	{"figure15", true, series(experiments.Figure15)},
	{"figure7", true, func(s *experiments.Suite) (any, error) { return experiments.Figure7(s) }},
	{"figure8", true, func(s *experiments.Suite) (any, error) { return experiments.Figure8(s) }},
	{"table2", true, func(s *experiments.Suite) (any, error) { return experiments.Table2(s) }},
	{"table3", true, func(s *experiments.Suite) (any, error) { return experiments.Table3(s) }},
	{"figure12", true, func(s *experiments.Suite) (any, error) { return experiments.Figure12(s) }},
	{"figure13", true, func(s *experiments.Suite) (any, error) { return experiments.Figure13(s) }},
	{"figure14", true, func(s *experiments.Suite) (any, error) { return experiments.Figure14(s) }},
	{"figure16", true, func(s *experiments.Suite) (any, error) { return experiments.Figure16(s) }},
	{"conservativity", false, func(s *experiments.Suite) (any, error) { return experiments.ValidateConservativity(s) }},
	{"triangulation", false, func(s *experiments.Suite) (any, error) { return experiments.Triangulation(s) }},
	{"routedynamics", false, func(s *experiments.Suite) (any, error) { return experiments.RouteDynamics(s, s.Config.Seed) }},
	{"inflation", false, func(s *experiments.Suite) (any, error) {
		rs, sum, err := experiments.PathInflation(s)
		return []any{rs, sum}, err
	}},
	{"episodes", false, func(s *experiments.Suite) (any, error) {
		return core.NewAnalyzer(s.UW4A).WithConcurrency(s.Config.Concurrency).AnalyzeEpisodes()
	}},
	{"tcpmodel", false, func(s *experiments.Suite) (any, error) { return experiments.ValidateTCPModel(s, s.Config.Seed) }},
	{"packetlevel", false, func(s *experiments.Suite) (any, error) { return experiments.ValidatePacketLevel(s) }},
	{"crossmetrics", false, func(s *experiments.Suite) (any, error) { return experiments.CrossMetrics(s) }},
	{"overlay", false, func(s *experiments.Suite) (any, error) {
		ov, err := experiments.Overlay(s, s.Config.Seed)
		if err == nil {
			err = checkOverlay(ov)
		}
		return ov, err
	}},
	{"multipath", false, func(s *experiments.Suite) (any, error) { return experiments.Multipath(s) }},
}

// checkOverlay enforces the overlay exhibit's ordering: the offline
// optimum bounds the overlay and the default at every scored point,
// and per probing budget optimal <= overlay <= default in mean RTT and
// the reverse in availability.
func checkOverlay(ov experiments.OverlayResult) error {
	if len(ov.OptimalRTTs) == 0 || len(ov.OptimalRTTs) != len(ov.OverlayRTTs) || len(ov.OptimalRTTs) != len(ov.DefaultRTTs) {
		return fmt.Errorf("overlay check: point clouds of %d/%d/%d points",
			len(ov.OptimalRTTs), len(ov.OverlayRTTs), len(ov.DefaultRTTs))
	}
	const eps = 1e-9
	for i, opt := range ov.OptimalRTTs {
		if opt > ov.OverlayRTTs[i]+eps || opt > ov.DefaultRTTs[i]+eps {
			return fmt.Errorf("overlay check: point %d: optimal %.3f ms above overlay %.3f or default %.3f",
				i, opt, ov.OverlayRTTs[i], ov.DefaultRTTs[i])
		}
	}
	for _, b := range ov.Budgets {
		if b.Optimal.MeanRTTMs > b.Overlay.MeanRTTMs+eps || b.Overlay.MeanRTTMs > b.Default.MeanRTTMs+eps {
			return fmt.Errorf("overlay check: budget %g: mean RTT optimal %.3f overlay %.3f default %.3f",
				b.ProbesPerSec, b.Optimal.MeanRTTMs, b.Overlay.MeanRTTMs, b.Default.MeanRTTMs)
		}
		if b.Optimal.Availability+eps < b.Overlay.Availability || b.Overlay.Availability+eps < b.Default.Availability {
			return fmt.Errorf("overlay check: budget %g: availability optimal %.5f overlay %.5f default %.5f",
				b.ProbesPerSec, b.Optimal.Availability, b.Overlay.Availability, b.Default.Availability)
		}
	}
	return nil
}

// passResult is one run of the catalogue.
type passResult struct {
	digest         string
	paperMs, extMs float64
}

// runCatalogue runs every exhibit on s, digesting the outputs in
// order. Each exhibit gets a span under parent; the first failing
// exhibit ends the pass with its error.
func runCatalogue(s *experiments.Suite, tr *tracer, parent int64) (passResult, error) {
	var res passResult
	h := sha256.New()
	for _, ex := range catalogue {
		sp := tr.start("experiments."+ex.id, parent, 0)
		t := time.Now()
		out, err := ex.run(s)
		ms := float64(time.Since(t)) / 1e6
		sp.end()
		if err != nil {
			return res, fmt.Errorf("%s: %w", ex.id, err)
		}
		if ex.paper {
			res.paperMs += ms
		} else {
			res.extMs += ms
		}
		fmt.Fprintf(h, "%s\n%+v\n", ex.id, out)
	}
	res.digest = fmt.Sprintf("%x", h.Sum(nil))
	return res, nil
}
