package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// TestParallelMatchesSequential is the bit-identical guarantee: the
// worker pool must produce exactly the same []PairResult as the
// sequential engine for every metric and via restriction, including
// result order, relay choices and confidence intervals.
func TestParallelMatchesSequential(t *testing.T) {
	ds := benchDataset(24)
	seq := NewAnalyzer(ds).WithConcurrency(1)
	par := NewAnalyzer(ds).WithConcurrency(8)
	for _, metric := range []Metric{MetricRTT, MetricLoss, MetricPropDelay} {
		for _, maxVia := range []int{0, 1, 2} {
			rs, err := seq.Query(QuerySpec{Metric: metric, MaxVia: maxVia})
			if err != nil {
				t.Fatalf("%v/maxVia=%d sequential: %v", metric, maxVia, err)
			}
			want := rs.PairResults()
			rs, err = par.Query(QuerySpec{Metric: metric, MaxVia: maxVia})
			if err != nil {
				t.Fatalf("%v/maxVia=%d parallel: %v", metric, maxVia, err)
			}
			got := rs.PairResults()
			if len(want) == 0 {
				t.Fatalf("%v/maxVia=%d: no comparable pairs", metric, maxVia)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v/maxVia=%d: parallel results differ from sequential", metric, maxVia)
			}
		}
	}
	// Time-of-day buckets search graphs staged for each query.
	compared := 0
	for _, b := range netsim.Buckets() {
		for _, metric := range []Metric{MetricRTT, MetricLoss} {
			spec := QuerySpec{Metric: metric, Bucket: &b}
			rs, err := seq.Query(spec)
			if err != nil {
				t.Fatalf("%v/%v sequential: %v", metric, b, err)
			}
			want := rs.PairResults()
			if rs, err = par.Query(spec); err != nil {
				t.Fatalf("%v/%v parallel: %v", metric, b, err)
			}
			if got := rs.PairResults(); !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%v: parallel bucketed results differ from sequential", metric, b)
			}
			compared += len(want)
		}
	}
	if compared == 0 {
		t.Fatal("no bucket had comparable pairs")
	}
}

// TestParallelGreedyRemoveTop checks that candidate-level parallelism
// preserves the greedy removal sequence, including the lowest-host
// tie-break.
func TestParallelGreedyRemoveTop(t *testing.T) {
	ds := benchDataset(24)
	wantSteps, wantFinal, err := NewAnalyzer(ds).WithConcurrency(1).GreedyRemoveTop(MetricRTT, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotSteps, gotFinal, err := NewAnalyzer(ds).WithConcurrency(8).GreedyRemoveTop(MetricRTT, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSteps, wantSteps) {
		t.Errorf("removal steps differ: got %+v want %+v", gotSteps, wantSteps)
	}
	if !reflect.DeepEqual(gotFinal, wantFinal) {
		t.Error("final pair results differ")
	}
}

// TestParallelImprovementContributions checks the per-relay
// contribution census, whose float sums are sensitive to accumulation
// order.
func TestParallelImprovementContributions(t *testing.T) {
	ds := benchDataset(24)
	want, err := NewAnalyzer(ds).WithConcurrency(1).ImprovementContributions(MetricRTT)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewAnalyzer(ds).WithConcurrency(8).ImprovementContributions(MetricRTT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("contributions differ between sequential and parallel")
	}
}

// TestParallelMedianAlternates covers the median-of-medians engine,
// which walks a different code path than the single-best Query.
func TestParallelMedianAlternates(t *testing.T) {
	ds := benchDataset(24)
	seq := NewAnalyzer(ds).WithConcurrency(1)
	par := NewAnalyzer(ds).WithConcurrency(8)

	wantMed, err := seq.BestMedianAlternates()
	if err != nil {
		t.Fatal(err)
	}
	gotMed, err := par.BestMedianAlternates()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMed, wantMed) {
		t.Error("median results differ")
	}
}

// TestDijkstraScanMatchesHeap locks the two unlimited-search variants
// together: the array-scan version used for small graphs must find the
// same path as the heap version used for large ones, for every pair.
func TestDijkstraScanMatchesHeap(t *testing.T) {
	ds := benchDataset(24)
	g, err := buildGraph(ds, MetricRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(g.hosts)
	run := func(variant func(src, dst int, excluded []bool, s *searchScratch), src, dst int) ([]int, bool) {
		s := g.scratch.Get().(*searchScratch)
		defer g.scratch.Put(s)
		for i := 0; i < n; i++ {
			s.dist[i], s.prev[i], s.done[i] = math.MaxFloat64, -1, false
		}
		s.dist[src] = 0
		variant(src, dst, nil, s)
		if s.prev[dst] == -1 {
			return nil, false
		}
		var path []int
		for v := dst; v != -1; v = int(s.prev[v]) {
			path = append(path, v)
			if v == src {
				break
			}
		}
		return path, true
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			scanPath, scanOK := run(g.dijkstraScan, src, dst)
			heapPath, heapOK := run(func(src, dst int, excluded []bool, s *searchScratch) {
				g.dijkstraHeap(src, dst, excluded, s, nil)
			}, src, dst)
			if scanOK != heapOK || !reflect.DeepEqual(scanPath, heapPath) {
				t.Fatalf("pair %d->%d: scan %v/%v heap %v/%v",
					src, dst, scanPath, scanOK, heapPath, heapOK)
			}
			altPath, altOK := run(func(src, dst int, excluded []bool, s *searchScratch) {
				g.dijkstraHeap(src, dst, excluded, s, g.landmarksFor(dst))
			}, src, dst)
			if altOK != heapOK || !reflect.DeepEqual(altPath, heapPath) {
				t.Fatalf("pair %d->%d: ALT-pruned heap %v/%v, plain heap %v/%v",
					src, dst, altPath, altOK, heapPath, heapOK)
			}
		}
	}
}

// TestSharedTreeMatchesPerPair locks the per-source shared-tree fast
// path against the plain per-pair search: every reported relay sequence
// must be exactly what a fresh direct-edge-excluded search finds.
func TestSharedTreeMatchesPerPair(t *testing.T) {
	ds := benchDataset(24)
	for _, metric := range []Metric{MetricRTT, MetricLoss, MetricPropDelay} {
		rs, err := NewAnalyzer(ds).WithConcurrency(1).Query(QuerySpec{Metric: metric})
		if err != nil {
			t.Fatal(err)
		}
		results := rs.PairResults()
		g, err := buildGraph(ds, metric, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			si, di := g.index[r.Key.Src], g.index[r.Key.Dst]
			path, ok := g.shortestAlternate(si, di, 0, nil)
			if !ok {
				t.Fatalf("%v %v: engine found an alternate, per-pair search did not", metric, r.Key)
			}
			want := make([]topology.HostID, 0, len(path)-2)
			for _, v := range path[1 : len(path)-1] {
				want = append(want, g.hosts[v])
			}
			if !reflect.DeepEqual(r.Via, want) {
				t.Fatalf("%v %v: engine relay %v, per-pair search %v", metric, r.Key, r.Via, want)
			}
		}
	}
}

// TestQueryCancelled: an analyzer bound to a cancelled context aborts
// its computation with context.Canceled.
func TestQueryCancelled(t *testing.T) {
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	ds := benchDataset(24)
	if _, err := NewAnalyzer(ds).WithConcurrency(4).WithContext(pre).Query(QuerySpec{Metric: MetricRTT}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query under cancelled ctx: %v", err)
	}
}
