// Package stats provides the statistical machinery the paper's analysis
// relies on: streaming sample moments, empirical distributions and their
// convolution (for composing median path quality, Section 6.1), Student-t
// quantiles and Welch confidence intervals for mean differences
// (Section 6.2), and cumulative distribution functions for every figure.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Accum accumulates samples with Welford's algorithm, giving numerically
// stable mean and variance in one pass.
type Accum struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (a *Accum) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples.
func (a *Accum) N() int { return a.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accum) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (a *Accum) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accum) Std() float64 { return math.Sqrt(a.Var()) }

// Summary is the frozen form of an accumulator: enough to compose means
// and confidence intervals without the raw samples.
type Summary struct {
	N    int
	Mean float64
	Var  float64 // unbiased sample variance
}

// Summary freezes the accumulator.
func (a *Accum) Summary() Summary {
	return Summary{N: a.n, Mean: a.mean, Var: a.Var()}
}

// SE2 returns the squared standard error of the mean.
func (s Summary) SE2() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Var / float64(s.N)
}

// SumSummaries composes the summary of a sum of independent quantities:
// the synthetic alternate path's metric is the sum of its constituent
// edges' metrics, so means add and squared standard errors add ("the sum
// of the means is equal to the mean of the sums").
func SumSummaries(parts ...Summary) Summary {
	out := Summary{N: math.MaxInt}
	se2 := 0.0
	for _, p := range parts {
		out.Mean += p.Mean
		se2 += p.SE2()
		if p.N < out.N {
			out.N = p.N
		}
	}
	if len(parts) == 0 {
		out.N = 0
	}
	// Reconstruct a variance consistent with the combined SE2 at the
	// effective sample size, so downstream CI code works uniformly.
	if out.N > 0 && out.N != math.MaxInt {
		out.Var = se2 * float64(out.N)
	}
	return out
}

// welchDF returns the Welch–Satterthwaite effective degrees of freedom
// for the difference of two means.
func welchDF(a, b Summary) float64 {
	sa, sb := a.SE2(), b.SE2()
	num := (sa + sb) * (sa + sb)
	den := 0.0
	if a.N > 1 {
		den += sa * sa / float64(a.N-1)
	}
	if b.N > 1 {
		den += sb * sb / float64(b.N-1)
	}
	//repolint:allow floateq -- exact-zero guard: den is a sum of squares, zero only when every term is
	if den == 0 {
		return 1
	}
	df := num / den
	if df < 1 {
		df = 1
	}
	return df
}

// Verdict classifies a mean comparison at a confidence level.
type Verdict int

const (
	// Indeterminate: the confidence interval for the difference crosses
	// zero.
	Indeterminate Verdict = iota
	// FirstSmaller: the first mean is significantly smaller.
	FirstSmaller
	// FirstLarger: the first mean is significantly larger.
	FirstLarger
	// BothZero: every sample in both groups was exactly zero (used for
	// the paper's loss-rate Table 3 "is zero" column).
	BothZero
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Indeterminate:
		return "indeterminate"
	case FirstSmaller:
		return "first-smaller"
	case FirstLarger:
		return "first-larger"
	case BothZero:
		return "both-zero"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// CompareMeans runs a Welch t-test on the difference a.Mean - b.Mean at
// the given two-sided confidence level (e.g. 0.95) and classifies the
// result. Groups with no variance information (N < 2) are compared by CI
// width zero, matching the paper's treatment of exactly-measured paths.
func CompareMeans(a, b Summary, confidence float64) Verdict {
	//repolint:allow floateq -- BothZero classifies paths that never lost a packet: sums of exact zeros
	if a.N > 0 && b.N > 0 && a.Mean == 0 && b.Mean == 0 && a.Var == 0 && b.Var == 0 {
		return BothZero
	}
	diff := a.Mean - b.Mean
	se := math.Sqrt(a.SE2() + b.SE2())
	//repolint:allow floateq -- zero CI width means "exactly measured" per the paper; the sqrt of exact zeros
	if se == 0 {
		switch {
		case diff < 0:
			return FirstSmaller
		case diff > 0:
			return FirstLarger
		default:
			return Indeterminate
		}
	}
	tq := TQuantile(1-(1-confidence)/2, welchDF(a, b))
	half := tq * se
	switch {
	case diff+half < 0:
		return FirstSmaller
	case diff-half > 0:
		return FirstLarger
	default:
		return Indeterminate
	}
}

// MeanDiffCI returns the half-width of the two-sided confidence interval
// for a.Mean - b.Mean at the given confidence level.
func MeanDiffCI(a, b Summary, confidence float64) float64 {
	se := math.Sqrt(a.SE2() + b.SE2())
	//repolint:allow floateq -- zero CI width means "exactly measured" per the paper; the sqrt of exact zeros
	if se == 0 {
		return 0
	}
	return TQuantile(1-(1-confidence)/2, welchDF(a, b)) * se
}

// Quantile returns the q-quantile (0 <= q <= 1) of the data using linear
// interpolation between order statistics. It sorts a copy.
func Quantile(data []float64, q float64) (float64, error) {
	if len(data) == 0 {
		return 0, errors.New("stats: quantile of empty data")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %f out of [0,1]", q)
	}
	s := make([]float64, len(data))
	copy(s, data)
	sort.Float64s(s)
	return quantileSorted(s, q), nil
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	lo, hi, frac := quantilePos(len(s), q)
	if lo == hi {
		return s[lo]
	}
	return lerp(s[lo], s[hi], frac)
}

// quantilePos returns the two ranks the q-quantile of n > 1 sorted
// values interpolates between, and the weight of the upper one.
func quantilePos(n int, q float64) (lo, hi int, frac float64) {
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// lerp interpolates between x (weight 1-frac) and y (weight frac),
// for x <= y. The weighted sum can round past an endpoint (3 and 3 at
// frac 0.018 give 2.9999999999999996), so it is clamped to [x, y].
func lerp(x, y, frac float64) float64 {
	return math.Min(math.Max(x*(1-frac)+y*frac, x), y)
}

// Median returns the sample median.
func Median(data []float64) (float64, error) { return Quantile(data, 0.5) }

// Mean returns the arithmetic mean.
func Mean(data []float64) (float64, error) {
	if len(data) == 0 {
		return 0, errors.New("stats: mean of empty data")
	}
	sum := 0.0
	for _, x := range data {
		sum += x
	}
	return sum / float64(len(data)), nil
}
