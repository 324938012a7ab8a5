package experiments

import (
	"sort"

	"pathsel/internal/core"
	"pathsel/internal/optimal"
)

// InflationResult is one pair's comparison of three routings: the policy
// default, the best host-relayed alternate (the paper's remedy), and the
// globally optimal router-level path (the policy-free bound only the
// simulator can compute). All three are propagation round-trip delays.
type InflationResult struct {
	// DefaultMs is the default path's propagation estimate (tenth
	// percentile of measured RTTs).
	DefaultMs float64
	// AlternateMs is the best synthetic alternate's composed estimate.
	AlternateMs float64
	// OptimalMs is the true optimal round-trip propagation delay.
	OptimalMs float64
}

// Inflation is default over optimal (>= 1 up to measurement noise).
func (r InflationResult) Inflation() float64 { return r.DefaultMs / r.OptimalMs }

// Recovery is the fraction of the default-to-optimal gap the alternate
// closes: 0 = no better than default, 1 = fully optimal, negative =
// alternate worse than default. Pairs with no meaningful gap (default
// within 5% of optimal) report 0.
func (r InflationResult) Recovery() float64 {
	gap := r.DefaultMs - r.OptimalMs
	if gap <= 0.05*r.OptimalMs {
		return 0
	}
	return (r.DefaultMs - r.AlternateMs) / gap
}

// InflationSummary aggregates the study.
type InflationSummary struct {
	Pairs int
	// MedianInflation and P90Inflation summarize default/optimal.
	MedianInflation, P90Inflation float64
	// InflatedFraction is the share of pairs with >= 20% inflation.
	InflatedFraction float64
	// MeanRecovery averages the gap fraction recovered by alternates
	// over inflated pairs (clamped to [-1, 1] per pair to bound the
	// influence of outliers).
	MeanRecovery float64
	// HalfRecoveredFraction is the share of inflated pairs where the
	// alternate closes at least half of the gap.
	HalfRecoveredFraction float64
}

// PathInflation measures how far UW3's default paths are from the
// policy-free optimum, and how much of that optimality gap the paper's
// host-relayed alternates recover.
func PathInflation(s *Suite) ([]InflationResult, InflationSummary, error) {
	opt := optimal.New(s.TopoUW)
	a := s.analyzer(s.UW3)
	rs, err := a.Query(core.QuerySpec{Metric: core.MetricPropDelay})
	if err != nil {
		return nil, InflationSummary{}, err
	}
	results := rs.Rows
	var out []InflationResult
	for _, r := range results {
		optRTT, err := opt.HostRTT(r.Key.Src, r.Key.Dst)
		if err != nil {
			return nil, InflationSummary{}, err
		}
		out = append(out, InflationResult{
			DefaultMs:   r.DefaultValue,
			AlternateMs: r.AltValue,
			OptimalMs:   optRTT,
		})
	}

	sum := InflationSummary{Pairs: len(out)}
	if len(out) == 0 {
		return out, sum, nil
	}
	inflations := make([]float64, len(out))
	for i, r := range out {
		inflations[i] = r.Inflation()
	}
	sort.Float64s(inflations)
	sum.MedianInflation = inflations[len(inflations)/2]
	sum.P90Inflation = inflations[int(float64(len(inflations))*0.9)]
	inflated, halfRecovered := 0, 0
	recSum := 0.0
	for _, r := range out {
		if r.Inflation() < 1.2 {
			continue
		}
		inflated++
		rec := r.Recovery()
		if rec > 1 {
			rec = 1
		}
		if rec < -1 {
			rec = -1
		}
		recSum += rec
		if rec >= 0.5 {
			halfRecovered++
		}
	}
	sum.InflatedFraction = float64(inflated) / float64(len(out))
	if inflated > 0 {
		sum.MeanRecovery = recSum / float64(inflated)
		sum.HalfRecoveredFraction = float64(halfRecovered) / float64(inflated)
	}
	return out, sum, nil
}
