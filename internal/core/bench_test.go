package core

import (
	"math/rand"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// benchDataset builds a dense random measurement graph of n hosts.
func benchDataset(n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(2))
	hosts := make([]topology.HostID, n)
	for i := range hosts {
		hosts[i] = topology.HostID(i)
	}
	ds := dataset.New("bench", hosts)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() < 0.1 {
				continue
			}
			k := dataset.PairKey{Src: topology.HostID(i), Dst: topology.HostID(j)}
			base := 20 + rng.Float64()*180
			for s := 0; s < 40; s++ {
				rtt := base + rng.ExpFloat64()*30
				lost := rng.Float64() < 0.02
				if lost {
					rtt = 0
				}
				ds.RecordEcho(k, netsim.Time(s*600), []float64{rtt}, []bool{lost}, nil, 1)
			}
		}
	}
	return ds
}

func BenchmarkBestAlternates(b *testing.B) {
	ds := benchDataset(40)
	a := NewAnalyzer(ds)
	for _, bc := range []struct {
		name   string
		metric Metric
		maxVia int
	}{
		{"rtt-unrestricted", MetricRTT, 0},
		{"rtt-onehop", MetricRTT, 1},
		{"loss-unrestricted", MetricLoss, 0},
		{"prop-unrestricted", MetricPropDelay, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs, err := a.Query(QuerySpec{Metric: bc.metric, MaxVia: bc.maxVia})
				if err != nil {
					b.Fatal(err)
				}
				results := rs.PairResults()
				if len(results) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// BenchmarkBestAlternatesParallel compares the sequential engine with
// the worker pool on the same dataset. With one CPU the two are
// expected to be on par; the parallel/auto case shows the scaling on
// multicore machines.
func BenchmarkBestAlternatesParallel(b *testing.B) {
	ds := benchDataset(40)
	for _, bc := range []struct {
		name        string
		concurrency int
	}{
		{"sequential", 1},
		{"parallel-auto", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := NewAnalyzer(ds).WithConcurrency(bc.concurrency)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := a.Query(QuerySpec{Metric: MetricRTT})
				if err != nil {
					b.Fatal(err)
				}
				results := rs.PairResults()
				if len(results) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// BenchmarkGreedyRemoveTop exercises the iterated remove-the-best-relay
// hypothesis test, the heaviest analysis in the paper's Section 6.2.
func BenchmarkGreedyRemoveTop(b *testing.B) {
	ds := benchDataset(40)
	for _, bc := range []struct {
		name        string
		concurrency int
	}{
		{"sequential", 1},
		{"parallel-auto", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := NewAnalyzer(ds).WithConcurrency(bc.concurrency)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steps, _, err := a.GreedyRemoveTop(MetricRTT, 0, 3)
				if err != nil {
					b.Fatal(err)
				}
				if len(steps) == 0 {
					b.Fatal("no steps")
				}
			}
		})
	}
}

// benchSparseDataset builds a sparse random measurement graph: n hosts
// with ~deg measured destinations each and 8 samples per pair. Unlike
// benchDataset it stays linear in n, so it can exercise the substrate
// at sizes where a dense mesh would not fit in a benchmark run.
func benchSparseDataset(n, deg int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(3))
	hosts := make([]topology.HostID, n)
	for i := range hosts {
		hosts[i] = topology.HostID(i)
	}
	ds := dataset.New("bench-sparse", hosts)
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			k := dataset.PairKey{Src: hosts[i], Dst: hosts[j]}
			base := 20 + rng.Float64()*180
			for s := 0; s < 8; s++ {
				rtt := base + rng.ExpFloat64()*30
				lost := rng.Float64() < 0.02
				if lost {
					rtt = 0
				}
				ds.RecordEcho(k, netsim.Time(s*600), []float64{rtt}, []bool{lost}, nil, 1)
			}
		}
	}
	return ds
}

// BenchmarkBuildGraphSizes tracks CSR graph construction across the
// size curve, straddling the scan/heap engine threshold; the edge count
// is reported so slab growth shows up next to the timing.
func BenchmarkBuildGraphSizes(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"n64", 64}, {"n512", 512}, {"n2048", 2048}} {
		ds := benchSparseDataset(bc.n, 32)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var edges int
			for i := 0; i < b.N; i++ {
				g, err := buildGraph(ds, MetricRTT, nil)
				if err != nil {
					b.Fatal(err)
				}
				edges = len(g.wt)
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkShortestAlternateSizes tracks the per-pair alternate search
// across the same size curve: the small case uses the array scan, the
// larger ones the binary heap with ALT landmark pruning.
func BenchmarkShortestAlternateSizes(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"n64", 64}, {"n512", 512}, {"n2048", 2048}} {
		ds := benchSparseDataset(bc.n, 32)
		g, err := buildGraph(ds, MetricRTT, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			found := 0
			for i := 0; i < b.N; i++ {
				if _, ok := g.shortestAlternate(i%bc.n, (i+bc.n/2)%bc.n, 0, nil); ok {
					found++
				}
			}
			if b.N > 100 && found == 0 {
				b.Fatal("never found an alternate")
			}
		})
	}
}

func BenchmarkBuildGraph(b *testing.B) {
	ds := benchDataset(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildGraph(ds, MetricRTT, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShortestAlternate(b *testing.B) {
	ds := benchDataset(40)
	g, err := buildGraph(ds, MetricRTT, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		if _, ok := g.shortestAlternate(i%40, (i+11)%40, 0, nil); ok {
			found++
		}
	}
	if b.N > 100 && found == 0 {
		b.Fatal("never found an alternate")
	}
}
