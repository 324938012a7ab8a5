package main

import (
	"math"
	"regexp"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs: the smallest
// value with at least a q share of the sample at or below it. xs need
// not be sorted and is left untouched; an empty sample gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// rank is the 1-based nearest rank of quantile q among n samples. The
// epsilon keeps q*n from rounding up past an exact rank (0.9*100).
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99, p95 and p90 that leaves at least
// twenty samples above it, so a tail figure rests on many observations
// and holds from run to run; smaller samples (the ~35 builds of a
// build run) fall back to p75.
func tailQuantile(xs []float64) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9} {
		if len(xs)-rank(q, len(xs)) >= 20 {
			return quantile(xs, q)
		}
	}
	return quantile(xs, 0.75)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// metricName is the pattern every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
