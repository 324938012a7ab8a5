package experiments

import (
	"fmt"
	"math"

	"pathsel/internal/bgp"
	"pathsel/internal/core"
	"pathsel/internal/dataset"
	"pathsel/internal/forward"
	"pathsel/internal/igp"
	"pathsel/internal/measure"
	"pathsel/internal/netsim"
	"pathsel/internal/pathset"
	"pathsel/internal/probe"
	"pathsel/internal/stats"
	"pathsel/internal/topology"
)

// This file holds extension experiments the original study could not
// run: the Internet offered the authors no way to source-route packets
// along their synthetic alternates ("loose source routing ... is
// disabled by many AS's because of security concerns"), so the paper's
// conservativity argument — that host-composed alternates underestimate
// the real routing inefficiency — went unverified. The simulator can
// evaluate the router-level source-routed paths directly.

// ConservativityResult summarizes the source-routing validation.
type ConservativityResult struct {
	// Pairs is the number of pairs with a one-hop synthetic alternate.
	Pairs int
	// PredictedBetter counts pairs whose synthetic alternate estimate
	// beats the default path's measured mean.
	PredictedBetter int
	// ConfirmedBetter counts predicted-better pairs whose true
	// source-routed path (relay router, no host detour) also beats the
	// default path's true expected RTT.
	ConfirmedBetter int
	// SourceRouteBeatsEstimate counts predicted-better pairs where the
	// true source-routed RTT is at most the synthetic estimate — each
	// such pair is a case where the paper's methodology was indeed
	// conservative.
	SourceRouteBeatsEstimate int
}

// ConservativeFraction is the share of predicted-better pairs where the
// synthetic estimate was conservative (true source-routed performance at
// least as good as predicted).
func (r ConservativityResult) ConservativeFraction() float64 {
	if r.PredictedBetter == 0 {
		return 0
	}
	return float64(r.SourceRouteBeatsEstimate) / float64(r.PredictedBetter)
}

// ConfirmationFraction is the share of predicted-better pairs whose
// advantage survives when the alternate is actually source-routed.
func (r ConservativityResult) ConfirmationFraction() float64 {
	if r.PredictedBetter == 0 {
		return 0
	}
	return float64(r.ConfirmedBetter) / float64(r.PredictedBetter)
}

// validationSampleTimes returns probe instants spread across the UW3
// campaign window for evaluating true expected path RTTs.
func validationSampleTimes() []netsim.Time {
	var out []netsim.Time
	for day := 0; day < 7; day++ {
		for hour := 1; hour < 24; hour += 3 {
			out = append(out, netsim.Time(day*86400+hour*3600+247))
		}
	}
	return out
}

// trueRTT returns the mean expected round-trip time of a forward/reverse
// path pair across the sample times, including endpoint access links.
func trueRTT(net *netsim.Network, fwdPath, revPath forward.Path, src, dst topology.HostID, times []netsim.Time) (float64, error) {
	var acc stats.Accum
	for _, t := range times {
		fst, rst, err := net.EvalRoundTrip(src, dst, fwdPath.Links, revPath.Links, t)
		if err != nil {
			return 0, err
		}
		acc.Add(fst.DelayMs + rst.DelayMs)
	}
	return acc.Mean(), nil
}

// ValidateConservativity runs the source-routing validation on the UW3
// dataset: for every pair with a one-hop synthetic alternate, compare
// the paper-style estimate (composition of two measured host paths,
// which pays the relay's access link twice) against the true expected
// RTT of the loose-source-routed router path through the same relay.
func ValidateConservativity(s *Suite) (ConservativityResult, error) {
	fwd, net := s.UWForwarding()
	a := s.analyzer(s.UW3)
	rs, err := a.Query(core.QuerySpec{Metric: core.MetricRTT, MaxVia: 1})
	if err != nil {
		return ConservativityResult{}, err
	}
	results := rs.Rows
	times := validationSampleTimes()
	var out ConservativityResult
	for _, r := range results {
		if len(r.Via) != 1 {
			continue
		}
		out.Pairs++
		if r.Improvement() <= 0 {
			continue
		}
		out.PredictedBetter++

		srFwd, err := fwd.LooseSourcePath(r.Key.Src, r.Via, r.Key.Dst)
		if err != nil {
			return ConservativityResult{}, fmt.Errorf("validate %v: %w", r.Key, err)
		}
		srRev, err := fwd.LooseSourcePath(r.Key.Dst, r.Via, r.Key.Src)
		if err != nil {
			return ConservativityResult{}, fmt.Errorf("validate %v reverse: %w", r.Key, err)
		}
		srTrue, err := trueRTT(net, srFwd, srRev, r.Key.Src, r.Key.Dst, times)
		if err != nil {
			return ConservativityResult{}, err
		}

		defFwd, err := fwd.HostPath(r.Key.Src, r.Key.Dst)
		if err != nil {
			return ConservativityResult{}, err
		}
		defRev, err := fwd.HostPath(r.Key.Dst, r.Key.Src)
		if err != nil {
			return ConservativityResult{}, err
		}
		defTrue, err := trueRTT(net, defFwd, defRev, r.Key.Src, r.Key.Dst, times)
		if err != nil {
			return ConservativityResult{}, err
		}

		if srTrue < defTrue {
			out.ConfirmedBetter++
		}
		if srTrue <= r.AltValue {
			out.SourceRouteBeatsEstimate++
		}
	}
	return out, nil
}

// EgressAblation compares default-path quality and alternate-path
// opportunity under hot-potato versus cold-potato egress selection,
// quantifying how much of the measured inefficiency early-exit routing
// contributes (the paper's Section 3 names it as a suspect but cannot
// isolate it).
type EgressAblation struct {
	Policy forward.EgressPolicy
	// MeanDefaultRTT is the mean measured default-path RTT across pairs.
	MeanDefaultRTT float64
	// BetterFraction is the share of pairs with a superior alternate.
	BetterFraction float64
	// MedianImprovement is the median of the improvement CDF.
	MedianImprovement float64
}

// AblateEgress reruns a compact UW3-style campaign under each egress
// policy and reports the comparison. It builds its own topology so the
// suite's datasets are untouched.
func AblateEgress(cfg Config) ([]EgressAblation, error) {
	topCfg := topology.DefaultConfig(topology.Era1999)
	topCfg.Seed = cfg.Seed
	topCfg.NumHosts = 14
	top, err := topology.Generate(topCfg)
	if err != nil {
		return nil, err
	}
	g := igp.New(top, igp.DefaultConfig())
	table, err := bgp.Compute(top)
	if err != nil {
		return nil, err
	}
	netCfg := netsim.ConfigFor(topology.Era1999)
	netCfg.Seed = cfg.Seed + 11
	net := netsim.New(top, netCfg)

	var hosts []topology.HostID
	for _, h := range top.Hosts {
		hosts = append(hosts, h.ID)
	}
	var out []EgressAblation
	for _, policy := range []forward.EgressPolicy{forward.HotPotato, forward.ColdPotato} {
		fwd := forward.NewWithEgress(top, g, table, policy)
		prbCfg := probe.DefaultConfig()
		prbCfg.Seed = cfg.Seed + 21
		prb := probe.New(top, fwd, net, prbCfg)
		ds, err := measure.Run(top, prb, measure.Spec{
			Name:            "egress-" + policy.String(),
			Hosts:           hosts,
			Method:          measure.MethodTraceroute,
			Scheduler:       measure.ExponentialPairs,
			MeanIntervalSec: 55,
			DurationSec:     3 * 86400,
			RateLimit:       measure.FilterHosts,
			MinMeasurements: 20,
			Seed:            cfg.Seed + 31,
		})
		if err != nil {
			return nil, err
		}
		a := core.NewAnalyzer(ds).WithConcurrency(cfg.Concurrency)
		rs, err := a.Query(core.QuerySpec{Metric: core.MetricRTT})
		if err != nil {
			return nil, err
		}
		results := rs.Rows
		var meanDefault stats.Accum
		for _, r := range results {
			meanDefault.Add(r.DefaultValue)
		}
		cdf := core.ImprovementCDF(results)
		med, err := cdf.Quantile(0.5)
		if err != nil {
			return nil, err
		}
		out = append(out, EgressAblation{
			Policy:            policy,
			MeanDefaultRTT:    meanDefault.Mean(),
			BetterFraction:    cdf.FractionAbove(0),
			MedianImprovement: med,
		})
	}
	return out, nil
}

// TriangulationResult is one pair's IDMaps-style distance estimate: the
// paper notes its tool suite independently reproduces Francis et al.'s
// host-distance graphs by triangulating propagation delays through
// intermediate hosts.
type TriangulationResult struct {
	Key dataset.PairKey
	// DirectMs is the direct path's propagation estimate (tenth
	// percentile of measured RTTs).
	DirectMs float64
	// BestTriangleMs is the smallest relay sum prop(a,r) + prop(r,b).
	BestTriangleMs float64
}

// ViolatesTriangle reports whether the relay estimate undercuts the
// direct one — a triangle-inequality violation in measured Internet
// delay space, evidence of default-path inflation.
func (r TriangulationResult) ViolatesTriangle() bool {
	return r.BestTriangleMs < r.DirectMs
}

// Triangulation runs the host-distance triangulation over the UW3
// dataset using one-hop relays.
func Triangulation(s *Suite) ([]TriangulationResult, error) {
	a := s.analyzer(s.UW3)
	rs, err := a.Query(core.QuerySpec{Metric: core.MetricPropDelay, MaxVia: 1})
	if err != nil {
		return nil, err
	}
	results := rs.Rows
	out := make([]TriangulationResult, 0, len(results))
	for _, r := range results {
		out = append(out, TriangulationResult{
			Key:            r.Key,
			DirectMs:       r.DefaultValue,
			BestTriangleMs: r.AltValue,
		})
	}
	return out, nil
}

// CrossMetricSummary reports how often the RTT-best alternate also
// improves loss, and vice versa — the question an overlay router (which
// carries one flow that cares about both) actually faces.
type CrossMetricSummary struct {
	// RTTWinners is the number of pairs whose RTT-best alternate beats
	// the default on RTT; RTTAlsoLoss of them also improve loss.
	RTTWinners, RTTAlsoLoss int
	// LossWinners / LossAlsoRTT are the reverse direction.
	LossWinners, LossAlsoRTT int
}

// CrossMetrics runs both cross-metric evaluations over UW3.
func CrossMetrics(s *Suite) (CrossMetricSummary, error) {
	a := s.analyzer(s.UW3)
	var out CrossMetricSummary
	var err error
	if out.RTTWinners, out.RTTAlsoLoss, err = crossMetric(a, core.MetricRTT); err != nil {
		return out, err
	}
	out.LossWinners, out.LossAlsoRTT, err = crossMetric(a, core.MetricLoss)
	return out, err
}

// crossMetric selects best alternates under metric (RTT or loss) and
// judges them by the other one. winners counts the pairs whose
// alternate beats the default under metric, and also those of them
// whose alternate beats the default under the judging metric too. A
// pair whose default or alternate has a hop unmeasured under the
// judging metric is skipped.
func crossMetric(a *core.Analyzer, metric core.Metric) (winners, also int, err error) {
	rs, err := a.Query(core.QuerySpec{Metric: metric, Annotate: true})
	if err != nil {
		return 0, 0, err
	}
	judge := func(p pathset.Path) float64 {
		if metric == core.MetricRTT {
			return p.Loss
		}
		return p.LatencyMs
	}
	for _, p := range rs.Pairs {
		alt := p.Alternates.Paths[0]
		def, altJudged := judge(p.Default), judge(alt)
		if math.IsNaN(def) || math.IsNaN(altJudged) {
			continue
		}
		if p.Default.Value-alt.Value > 0 {
			winners++
			if def-altJudged > 0 {
				also++
			}
		}
	}
	return winners, also, nil
}
