package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistBasics(t *testing.T) {
	d := NewDist([]float64{3, 1, 2})
	if d.N() != 3 {
		t.Errorf("N = %d", d.N())
	}
	s := d.Samples()
	if s[0] != 1 || s[1] != 2 || s[2] != 3 {
		t.Errorf("not sorted: %v", s)
	}
	if m, _ := d.Median(); m != 2 {
		t.Errorf("median %f", m)
	}
	if m, _ := d.Mean(); m != 2 {
		t.Errorf("mean %f", m)
	}
	if _, err := (Dist{}).Median(); err == nil {
		t.Error("empty median should error")
	}
	if _, err := d.Quantile(-1); err == nil {
		t.Error("bad quantile should error")
	}
}

func TestDistThin(t *testing.T) {
	var raw []float64
	for i := 0; i < 1000; i++ {
		raw = append(raw, float64(i))
	}
	d := NewDist(raw)
	thin := d.Thin(10)
	if thin.N() != 10 {
		t.Fatalf("thinned to %d, want 10", thin.N())
	}
	mOrig, _ := d.Median()
	mThin, _ := thin.Median()
	if math.Abs(mOrig-mThin) > 50 {
		t.Errorf("thinning moved the median %f -> %f", mOrig, mThin)
	}
	// Thinning something already small is a no-op.
	small := NewDist([]float64{1, 2})
	if small.Thin(10).N() != 2 {
		t.Error("thin should not grow a distribution")
	}
}

func TestConvolveShiftsByConstant(t *testing.T) {
	// Convolving with a point mass at c shifts the whole distribution.
	d := NewDist([]float64{1, 2, 3, 4, 100})
	c := NewDist([]float64{10})
	sum, err := d.Convolve(c)
	if err != nil {
		t.Fatal(err)
	}
	mD, _ := d.Median()
	mS, _ := sum.Median()
	if math.Abs(mS-(mD+10)) > 1e-9 {
		t.Errorf("median of shift: %f, want %f", mS, mD+10)
	}
}

func TestConvolveMeansAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var a, b []float64
	for i := 0; i < 300; i++ {
		a = append(a, rng.ExpFloat64()*20)
		b = append(b, 50+rng.NormFloat64()*5)
	}
	da, db := NewDist(a), NewDist(b)
	sum, err := da.Convolve(db)
	if err != nil {
		t.Fatal(err)
	}
	ma, _ := da.Mean()
	mb, _ := db.Mean()
	ms, _ := sum.Mean()
	if math.Abs(ms-(ma+mb)) > 1.5 {
		t.Errorf("convolved mean %f, want ~%f", ms, ma+mb)
	}
}

func TestConvolveMedianOfNormalsAdds(t *testing.T) {
	// For symmetric distributions the medians add under convolution.
	rng := rand.New(rand.NewSource(3))
	var a, b []float64
	for i := 0; i < 500; i++ {
		a = append(a, 30+rng.NormFloat64()*3)
		b = append(b, 70+rng.NormFloat64()*7)
	}
	sum, err := NewDist(a).Convolve(NewDist(b))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := sum.Median()
	if math.Abs(m-100) > 1.5 {
		t.Errorf("median of sum %f, want ~100", m)
	}
}

func TestConvolveEmpty(t *testing.T) {
	d := NewDist([]float64{1})
	if _, err := d.Convolve(Dist{}); err == nil {
		t.Error("convolve with empty should error")
	}
	if _, err := (Dist{}).Convolve(d); err == nil {
		t.Error("convolve from empty should error")
	}
}

func TestConvolveCommutativeMedian(t *testing.T) {
	f := func(rawA, rawB []float64) bool {
		var a, b []float64
		for _, x := range rawA {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				a = append(a, x)
			}
		}
		for _, x := range rawB {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				b = append(b, x)
			}
		}
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		ab, err1 := NewDist(a).Convolve(NewDist(b))
		ba, err2 := NewDist(b).Convolve(NewDist(a))
		if err1 != nil || err2 != nil {
			return false
		}
		m1, _ := ab.Median()
		m2, _ := ba.Median()
		return math.Abs(m1-m2) < 1e-6*(1+math.Abs(m1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestConvolvedMedianMatchesConvolve checks the order-statistic kernel
// against the full convolution bit for bit: input sizes on both sides
// of ConvolutionPoints, cross products on both sides of the thinned
// result's size, one-point inputs, heavy ties, negative values, and
// inputs whose sums hit NaN or a signed zero (the sort fallback).
func TestConvolvedMedianMatchesConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sample := func(n int, ties bool) []float64 {
		out := make([]float64, n)
		for i := range out {
			if ties {
				out[i] = float64(rng.Intn(6)) * 2.5
			} else {
				out[i] = 20 + rng.ExpFloat64()*30 - 5*rng.Float64()
			}
		}
		return out
	}
	size := func() int {
		switch r := rng.Intn(20); {
		case r == 0:
			return 1
		case r == 1:
			return 200 + rng.Intn(100) // around ConvolutionPoints
		case r < 8:
			return 25 + rng.Intn(20) // products around convolutionKeep
		default:
			return 1 + rng.Intn(120)
		}
	}
	check := func(name string, a, b Dist, buf []float64) []float64 {
		t.Helper()
		c, err := a.Convolve(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Median()
		if err != nil {
			t.Fatal(err)
		}
		got, buf, err := a.ConvolvedMedian(b, buf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %d x %d points: ConvolvedMedian %v (%#x), Convolve+Median %v (%#x)",
				name, a.N(), b.N(), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		return buf
	}
	var buf []float64
	for i := 0; i < 3000; i++ {
		ties := rng.Intn(3) == 0
		buf = check("random", NewDist(sample(size(), ties)), NewDist(sample(size(), ties)), buf)
	}
	for _, n := range [][2]int{{1, 1}, {1, 1024}, {32, 32}, {32, 33}, {256, 256}, {257, 300}, {1, 1025}} {
		buf = check("edge", NewDist(sample(n[0], false)), NewDist(sample(n[1], false)), buf)
	}
	withNaN := sample(40, false)
	withNaN[7] = math.NaN()
	buf = check("nan", NewDist(withNaN), NewDist(sample(40, false)), buf)
	// Sums of -0 and +0 inputs mix both zeros around the median.
	zeros := []float64{math.Copysign(0, -1), 0, 1, -1}
	for i := 0; i < 200; i++ {
		a, b := make([]float64, 1+rng.Intn(40)), make([]float64, 1+rng.Intn(40))
		for _, s := range [][]float64{a, b} {
			for j := range s {
				s[j] = zeros[rng.Intn(len(zeros))]
			}
		}
		buf = check("signed zero", NewDist(a), NewDist(b), buf)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{10, -5, 0, 20})
	if c.N() != 4 {
		t.Errorf("N = %d", c.N())
	}
	if f := c.FractionBelow(0); f != 0.5 {
		t.Errorf("FractionBelow(0) = %f, want 0.5", f)
	}
	if f := c.FractionBelow(-10); f != 0 {
		t.Errorf("FractionBelow(-10) = %f, want 0", f)
	}
	if f := c.FractionBelow(100); f != 1 {
		t.Errorf("FractionBelow(100) = %f, want 1", f)
	}
	if f := c.FractionAbove(0); f != 0.5 {
		t.Errorf("FractionAbove(0) = %f, want 0.5", f)
	}
	if q, _ := c.Quantile(0); q != -5 {
		t.Errorf("q0 = %f", q)
	}
	if _, err := c.Quantile(2); err == nil {
		t.Error("bad quantile should error")
	}
	if _, err := NewCDF(nil).Quantile(0.5); err == nil {
		t.Error("empty CDF quantile should error")
	}
	if !math.IsNaN(NewCDF(nil).FractionBelow(1)) {
		t.Error("empty CDF fraction should be NaN")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	pts := c.Points()
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].X != 1 || pts[0].Frac != 0.25 {
		t.Errorf("first point %+v", pts[0])
	}
	if pts[3].X != 4 || pts[3].Frac != 1 {
		t.Errorf("last point %+v", pts[3])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Frac <= pts[i-1].Frac {
			t.Errorf("points not monotone at %d", i)
		}
	}
}

func TestCDFTrimmed(t *testing.T) {
	c := NewCDF([]float64{-100, -1, 0, 1, 100})
	tr := c.Trimmed(-10, 10)
	if tr.N() != 3 {
		t.Errorf("trimmed N = %d, want 3", tr.N())
	}
	if tr.FractionBelow(0) != 2.0/3.0 {
		t.Errorf("trimmed fraction = %f", tr.FractionBelow(0))
	}
}

func TestCDFFractionBelowMonotone(t *testing.T) {
	f := func(raw []float64, x1, x2 float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 || math.IsNaN(x1) || math.IsNaN(x2) {
			return true
		}
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		c := NewCDF(vals)
		return c.FractionBelow(x1) <= c.FractionBelow(x2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
