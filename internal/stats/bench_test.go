package stats

import (
	"math/rand"
	"testing"
)

func benchSamples(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]float64, n)
	for i := range out {
		out[i] = 50 + rng.ExpFloat64()*20
	}
	return out
}

func BenchmarkAccumAdd(b *testing.B) {
	data := benchSamples(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var a Accum
		for _, x := range data {
			a.Add(x)
		}
		if a.N() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if v := TQuantile(0.975, float64(2+i%100)); v <= 0 {
			b.Fatal("bad quantile")
		}
	}
}

func BenchmarkCompareMeans(b *testing.B) {
	x := Summary{N: 120, Mean: 80, Var: 900}
	y := Summary{N: 90, Mean: 75, Var: 1100}
	for i := 0; i < b.N; i++ {
		CompareMeans(x, y, 0.95)
	}
}

func BenchmarkConvolve(b *testing.B) {
	d1 := NewDist(benchSamples(300))
	d2 := NewDist(benchSamples(300))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d1.Convolve(d2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvolvedMedian(b *testing.B) {
	d1 := NewDist(benchSamples(300)).Thin(ConvolutionPoints)
	d2 := NewDist(benchSamples(300)).Thin(ConvolutionPoints)
	var buf []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, buf, err = d1.ConvolvedMedian(d2, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCDFFractionBelow(b *testing.B) {
	c := NewCDF(benchSamples(2000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FractionBelow(float64(i % 200))
	}
}
