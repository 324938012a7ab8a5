package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Dist is an empirical distribution: a multiset of samples kept sorted.
// The paper's Section 6.1 composes alternate-path medians by convolving
// the sample distributions of the constituent hops; Dist implements that
// convolution with deterministic quantile thinning to bound cost.
type Dist struct {
	samples []float64 // sorted ascending
}

// NewDist builds a distribution from samples (copied and sorted).
func NewDist(samples []float64) Dist {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return Dist{samples: s}
}

// N returns the sample count.
func (d Dist) N() int { return len(d.samples) }

// Samples returns the sorted samples (not a copy; callers must not
// mutate).
func (d Dist) Samples() []float64 { return d.samples }

// Median returns the distribution's median.
func (d Dist) Median() (float64, error) {
	if len(d.samples) == 0 {
		return 0, errors.New("stats: median of empty distribution")
	}
	return quantileSorted(d.samples, 0.5), nil
}

// Quantile returns the q-quantile.
func (d Dist) Quantile(q float64) (float64, error) {
	if len(d.samples) == 0 {
		return 0, errors.New("stats: quantile of empty distribution")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %f out of [0,1]", q)
	}
	return quantileSorted(d.samples, q), nil
}

// Mean returns the distribution's mean.
func (d Dist) Mean() (float64, error) { return Mean(d.samples) }

// Thin reduces the distribution to at most n equally spaced quantile
// points, preserving its shape deterministically.
func (d Dist) Thin(n int) Dist {
	if n <= 0 || len(d.samples) <= n {
		return d
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = quantileSorted(d.samples, thinQuantile(i, n))
	}
	return Dist{samples: out}
}

// thinQuantile is the quantile Thin(n) keeps as its i-th point.
func thinQuantile(i, n int) float64 { return (float64(i) + 0.5) / float64(n) }

// ConvolutionPoints bounds each input of a convolution: larger inputs
// are thinned to this many quantile points first.
const ConvolutionPoints = 256

// convolutionKeep bounds a convolution's result, so chained
// convolutions stay cheap.
const convolutionKeep = ConvolutionPoints * 4

// Convolve returns the distribution of X+Y for independent X ~ d and
// Y ~ other: the multiset of pairwise sums. Inputs larger than
// ConvolutionPoints are first thinned to that many quantile points, as
// the paper notes the exact computation is "substantially more expensive".
func (d Dist) Convolve(other Dist) (Dist, error) {
	if d.N() == 0 || other.N() == 0 {
		return Dist{}, errors.New("stats: convolve with empty distribution")
	}
	a := d.Thin(ConvolutionPoints)
	b := other.Thin(ConvolutionPoints)
	out := make([]float64, 0, a.N()*b.N())
	for _, x := range a.samples {
		for _, y := range b.samples {
			out = append(out, x+y)
		}
	}
	sort.Float64s(out)
	res := Dist{samples: out}
	return res.Thin(convolutionKeep), nil
}

// ConvolvedMedian returns d.Convolve(other).Median(), bit for bit,
// without sorting the cross product. The median of the thinned
// convolution interpolates at most four order statistics of the
// pairwise sums, and quickselect finds them in linear time.
//
// buf is scratch space for the sums: it is grown when too small and
// returned for reuse, so a caller that keeps one buffer per worker
// allocates nothing in steady state. Thin inputs to ConvolutionPoints
// once beforehand when they are convolved many times.
func (d Dist) ConvolvedMedian(other Dist, buf []float64) (float64, []float64, error) {
	if d.N() == 0 || other.N() == 0 {
		return 0, buf, errors.New("stats: convolve with empty distribution")
	}
	a := d.Thin(ConvolutionPoints)
	b := other.Thin(ConvolutionPoints)
	n := a.N() * b.N()
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	sums := buf[:n]
	k := 0
	for _, x := range a.samples {
		for _, y := range b.samples {
			s := x + y
			// Quickselect's < leaves NaN and the two zeros where they
			// fall, while sort.Float64s moves NaN first and may order
			// -0 and +0 either way; only the sort reproduces those.
			//repolint:allow floateq -- exact test for a signed zero
			if math.IsNaN(s) || s == 0 {
				m, err := d.sortedConvolvedMedian(other)
				return m, buf, err
			}
			sums[k] = s
			k++
		}
	}
	if n <= convolutionKeep {
		// Thin(convolutionKeep) keeps every sum.
		lo, hi, _ := quantilePos(n, 0.5)
		selectRanks(sums, lo, hi)
		return quantileSorted(sums, 0.5), buf, nil
	}
	// The thinned result has an even number of points, so its median
	// interpolates two of them, and each of those interpolates two
	// order statistics of the sums.
	tlo, thi, frac := quantilePos(convolutionKeep, 0.5)
	qlo, qhi := thinQuantile(tlo, convolutionKeep), thinQuantile(thi, convolutionKeep)
	lo, _, _ := quantilePos(n, qlo)
	_, hi, _ := quantilePos(n, qhi)
	selectRanks(sums, lo, hi)
	return lerp(quantileSorted(sums, qlo), quantileSorted(sums, qhi), frac), buf, nil
}

// sortedConvolvedMedian is ConvolvedMedian by full convolution.
func (d Dist) sortedConvolvedMedian(other Dist) (float64, error) {
	c, err := d.Convolve(other)
	if err != nil {
		return 0, err
	}
	return c.Median()
}

// selectRanks reorders s so that s[lo..hi] hold, in order, the values
// of ranks lo through hi: it selects rank lo, then rank hi among the
// values above it, and sorts the few values between the two.
func selectRanks(s []float64, lo, hi int) {
	selectRank(s, lo)
	if hi > lo {
		selectRank(s[lo+1:], hi-lo-1)
		slices.Sort(s[lo+1 : hi])
	}
}

// selectRank reorders s (no NaN) so that s[k] holds the value of rank
// k, nothing before it is larger and nothing after it is smaller. It is
// Hoare's FIND with a median-of-three pivot: expected linear time, and
// runs of equal values split evenly instead of degrading it.
func selectRank(s []float64, k int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		p := median3(s[lo], s[lo+(hi-lo)/2], s[hi])
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for p < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[lo..j] <= p <= s[i..hi], and everything between is p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// CDF is a cumulative distribution function over a finite set of values,
// the form in which every figure in the paper is presented.
type CDF struct {
	values []float64 // sorted ascending
}

// NewCDF builds a CDF from values (copied and sorted).
func NewCDF(values []float64) CDF {
	v := make([]float64, len(values))
	copy(v, values)
	sort.Float64s(v)
	return CDF{values: v}
}

// N returns the number of points.
func (c CDF) N() int { return len(c.values) }

// Values returns the sorted values (not a copy).
func (c CDF) Values() []float64 { return c.values }

// FractionBelow returns P(X <= x).
func (c CDF) FractionBelow(x float64) float64 {
	if len(c.values) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.values, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.values))
}

// FractionAbove returns P(X > x).
func (c CDF) FractionAbove(x float64) float64 {
	if len(c.values) == 0 {
		return math.NaN()
	}
	return 1 - c.FractionBelow(x)
}

// Quantile returns the q-quantile of the CDF.
func (c CDF) Quantile(q float64) (float64, error) {
	if len(c.values) == 0 {
		return 0, errors.New("stats: quantile of empty CDF")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %f out of [0,1]", q)
	}
	return quantileSorted(c.values, q), nil
}

// Point is one (x, cumulative fraction) pair of a CDF polyline.
type Point struct {
	X    float64
	Frac float64
}

// Points returns the CDF as a polyline: for each sorted value, the
// fraction of values at or below it.
func (c CDF) Points() []Point {
	pts := make([]Point, len(c.values))
	for i, v := range c.values {
		pts[i] = Point{X: v, Frac: float64(i+1) / float64(len(c.values))}
	}
	return pts
}

// Trimmed returns a copy of the CDF with values outside [lo, hi] removed,
// mirroring the paper's trimming of long tails ("we have trimmed our
// graphs to eliminate visual scaling artifacts"; trimmed CDFs need not
// reach 100%).
func (c CDF) Trimmed(lo, hi float64) CDF {
	out := make([]float64, 0, len(c.values))
	for _, v := range c.values {
		if v >= lo && v <= hi {
			out = append(out, v)
		}
	}
	return CDF{values: out}
}
