package core

import (
	"math"
	"math/rand"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// addRTT records n RTT samples of the given values on a pair.
func addRTT(ds *dataset.Dataset, src, dst int, values ...float64) {
	k := dataset.PairKey{Src: topology.HostID(src), Dst: topology.HostID(dst)}
	for i, v := range values {
		ds.RecordEcho(k, netsim.Time(i), []float64{v}, []bool{false}, nil, 1)
	}
}

// addLoss records loss observations: losses lost out of total.
func addLoss(ds *dataset.Dataset, src, dst, lost, total int) {
	k := dataset.PairKey{Src: topology.HostID(src), Dst: topology.HostID(dst)}
	for i := 0; i < total; i++ {
		isLost := i < lost
		rtt := []float64{10}
		if isLost {
			rtt = []float64{0}
		}
		ds.RecordEcho(k, netsim.Time(i), rtt, []bool{isLost}, nil, 1)
	}
}

// shortestAlternate runs one per-pair search in a pooled scratch: the
// reference the batch searches are checked against.
func (g *graph) shortestAlternate(src, dst, maxVia int, excluded []bool) (path []int, ok bool) {
	g.freeze()
	s := g.scratch.Get().(*searchScratch)
	defer g.scratch.Put(s)
	return g.shortestAlternateInto(s, src, dst, maxVia, excluded)
}

func hostIDs(n int) []topology.HostID {
	out := make([]topology.HostID, n)
	for i := range out {
		out[i] = topology.HostID(i)
	}
	return out
}

func TestLossWeightRoundTrip(t *testing.T) {
	for _, p := range []float64{0, 0.001, 0.1, 0.5, 0.99} {
		w := lossWeight(p)
		if got := lossFromWeight(w); math.Abs(got-p) > 1e-12 {
			t.Errorf("round trip %f -> %f", p, got)
		}
	}
	// Additivity: composing two losses via weights equals independence.
	p1, p2 := 0.1, 0.2
	composed := lossFromWeight(lossWeight(p1) + lossWeight(p2))
	want := 1 - (1-p1)*(1-p2)
	if math.Abs(composed-want) > 1e-12 {
		t.Errorf("composed %f, want %f", composed, want)
	}
	// Degenerate inputs are clamped, not NaN.
	if math.IsNaN(lossWeight(1.5)) || math.IsNaN(lossWeight(-0.5)) {
		t.Error("lossWeight should clamp out-of-range input")
	}
}

func TestBuildGraphRTT(t *testing.T) {
	ds := dataset.New("g", hostIDs(3))
	addRTT(ds, 0, 1, 10, 20, 30)
	addRTT(ds, 1, 2, 5, 5)
	g, err := buildGraph(ds, MetricRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.hosts) != 3 {
		t.Fatalf("hosts %d", len(g.hosts))
	}
	e, ok := g.directEdge(0, 1)
	if !ok || e.value != 20 || e.summary.N != 3 {
		t.Fatalf("edge 0->1: %+v ok=%v", e, ok)
	}
	if _, ok := g.directEdge(0, 2); ok {
		t.Error("unmeasured edge should be absent")
	}
	if _, ok := g.directEdge(1, 0); ok {
		t.Error("reverse edge should be absent (directed graph)")
	}
}

func TestBuildGraphLoss(t *testing.T) {
	ds := dataset.New("g", hostIDs(2))
	addLoss(ds, 0, 1, 2, 10)
	g, err := buildGraph(ds, MetricLoss, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.directEdge(0, 1)
	if !ok {
		t.Fatal("missing edge")
	}
	if math.Abs(e.value-0.2) > 1e-12 {
		t.Errorf("loss value %f, want 0.2", e.value)
	}
	if math.Abs(e.weight-lossWeight(0.2)) > 1e-12 {
		t.Errorf("loss weight %f", e.weight)
	}
}

func TestBuildGraphProp(t *testing.T) {
	ds := dataset.New("g", hostIDs(2))
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	addRTT(ds, 0, 1, vals...)
	g, err := buildGraph(ds, MetricPropDelay, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.directEdge(0, 1)
	if !ok {
		t.Fatal("missing edge")
	}
	if e.value < 10 || e.value > 12 {
		t.Errorf("prop estimate %f, want ~10.9 (10th percentile)", e.value)
	}
}

func TestShortestAlternateSimple(t *testing.T) {
	ds := dataset.New("g", hostIDs(3))
	addRTT(ds, 0, 1, 100)
	addRTT(ds, 0, 2, 20)
	addRTT(ds, 2, 1, 20)
	g, err := buildGraph(ds, MetricRTT, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxVia := range []int{0, 1, 2} {
		path, ok := g.shortestAlternate(0, 1, maxVia, nil)
		if !ok {
			t.Fatalf("maxVia=%d: no alternate", maxVia)
		}
		if len(path) != 3 || path[0] != 0 || path[1] != 2 || path[2] != 1 {
			t.Fatalf("maxVia=%d: path %v, want [0 2 1]", maxVia, path)
		}
	}
}

func TestShortestAlternateNeverUsesDirectEdge(t *testing.T) {
	// Direct is fastest; the alternate must still avoid it.
	ds := dataset.New("g", hostIDs(3))
	addRTT(ds, 0, 1, 1)
	addRTT(ds, 0, 2, 50)
	addRTT(ds, 2, 1, 50)
	g, _ := buildGraph(ds, MetricRTT, nil)
	path, ok := g.shortestAlternate(0, 1, 0, nil)
	if !ok {
		t.Fatal("no alternate")
	}
	if len(path) != 3 || path[1] != 2 {
		t.Fatalf("path %v should detour via 2", path)
	}
}

func TestShortestAlternateRespectsHopLimit(t *testing.T) {
	// Chain 0->2->3->1 costs 30; one-hop 0->4->1 costs 100.
	ds := dataset.New("g", hostIDs(5))
	addRTT(ds, 0, 1, 500)
	addRTT(ds, 0, 2, 10)
	addRTT(ds, 2, 3, 10)
	addRTT(ds, 3, 1, 10)
	addRTT(ds, 0, 4, 50)
	addRTT(ds, 4, 1, 50)
	g, _ := buildGraph(ds, MetricRTT, nil)

	path, ok := g.shortestAlternate(0, 1, 0, nil)
	if !ok || len(path) != 4 {
		t.Fatalf("unrestricted path %v ok=%v, want chain of 4", path, ok)
	}
	path, ok = g.shortestAlternate(0, 1, 1, nil)
	if !ok || len(path) != 3 || path[1] != 4 {
		t.Fatalf("one-hop path %v ok=%v, want via 4", path, ok)
	}
	path, ok = g.shortestAlternate(0, 1, 2, nil)
	if !ok || len(path) != 4 {
		t.Fatalf("two-via path %v ok=%v, want chain", path, ok)
	}
}

func TestShortestAlternateExclusion(t *testing.T) {
	ds := dataset.New("g", hostIDs(4))
	addRTT(ds, 0, 1, 100)
	addRTT(ds, 0, 2, 10)
	addRTT(ds, 2, 1, 10)
	addRTT(ds, 0, 3, 30)
	addRTT(ds, 3, 1, 30)
	g, _ := buildGraph(ds, MetricRTT, nil)
	excluded := make([]bool, 4)
	excluded[2] = true
	for _, maxVia := range []int{0, 1} {
		path, ok := g.shortestAlternate(0, 1, maxVia, excluded)
		if !ok || path[1] != 3 {
			t.Fatalf("maxVia=%d: path %v should avoid excluded host 2", maxVia, path)
		}
	}
}

func TestShortestAlternateNone(t *testing.T) {
	ds := dataset.New("g", hostIDs(3))
	addRTT(ds, 0, 1, 10)
	g, _ := buildGraph(ds, MetricRTT, nil)
	for _, maxVia := range []int{0, 1, 3} {
		if _, ok := g.shortestAlternate(0, 1, maxVia, nil); ok {
			t.Fatalf("maxVia=%d: found alternate in edgeless graph", maxVia)
		}
	}
}

func TestComposePathLoss(t *testing.T) {
	ds := dataset.New("g", hostIDs(3))
	addLoss(ds, 0, 2, 1, 10) // 10%
	addLoss(ds, 2, 1, 2, 10) // 20%
	g, _ := buildGraph(ds, MetricLoss, nil)
	v, sum, err := g.composePath(MetricLoss, []int{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.9*0.8
	if math.Abs(v-want) > 1e-12 {
		t.Errorf("composed loss %f, want %f", v, want)
	}
	if math.Abs(sum.Mean-want) > 1e-12 {
		t.Errorf("summary mean %f, want %f", sum.Mean, want)
	}
	if sum.SE2() <= 0 {
		t.Error("composed SE should be positive")
	}
}

func TestComposePathErrors(t *testing.T) {
	ds := dataset.New("g", hostIDs(3))
	addRTT(ds, 0, 1, 10)
	g, _ := buildGraph(ds, MetricRTT, nil)
	if _, _, err := g.composePath(MetricRTT, []int{0}); err == nil {
		t.Error("short path should error")
	}
	if _, _, err := g.composePath(MetricRTT, []int{0, 2}); err == nil {
		t.Error("missing edge should error")
	}
}

// TestBoundedMatchesBruteForce cross-checks the bounded DP against
// exhaustive enumeration on random graphs.
func TestBoundedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(4)
		ds := dataset.New("g", hostIDs(n))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.35 {
					continue
				}
				addRTT(ds, i, j, 1+math.Floor(rng.Float64()*100))
			}
		}
		g, err := buildGraph(ds, MetricRTT, nil)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := 0, 1
		maxVia := 2 + rng.Intn(2)
		path, ok := g.shortestAlternate(src, dst, maxVia, nil)
		bestW, bestOK := bruteBest(g, src, dst, maxVia)
		if ok != bestOK {
			t.Fatalf("trial %d: ok=%v brute=%v", trial, ok, bestOK)
		}
		if !ok {
			continue
		}
		w := 0.0
		for i := 0; i+1 < len(path); i++ {
			e, _ := g.directEdge(path[i], path[i+1])
			w += e.weight
		}
		if math.Abs(w-bestW) > 1e-9 {
			t.Fatalf("trial %d: DP found %f (path %v), brute force %f", trial, w, path, bestW)
		}
		if len(path) > maxVia+2 {
			t.Fatalf("trial %d: path %v exceeds via limit %d", trial, path, maxVia)
		}
	}
}

// bruteBest enumerates all simple alternate paths with <= maxVia
// intermediates.
func bruteBest(g *graph, src, dst, maxVia int) (float64, bool) {
	best := math.Inf(1)
	found := false
	g.freeze()
	var rec func(cur int, used map[int]bool, weight float64, vias int)
	rec = func(cur int, used map[int]bool, weight float64, vias int) {
		lo, hi := g.ix.Row(int32(cur))
		for s := lo; s < hi; s++ {
			to, w := int(g.ix.Tgt[s]), g.wt[s]
			if cur == src && to == dst {
				continue
			}
			if to == dst {
				if w := weight + w; w < best {
					best, found = w, true
				}
				continue
			}
			if used[to] || vias >= maxVia {
				continue
			}
			used[to] = true
			rec(to, used, weight+w, vias+1)
			delete(used, to)
		}
	}
	rec(src, map[int]bool{src: true}, 0, 0)
	return best, found
}

// TestUnlimitedMatchesBruteForce cross-checks Dijkstra similarly (simple
// paths suffice: weights are non-negative).
func TestUnlimitedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(3)
		ds := dataset.New("g", hostIDs(n))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.3 {
					continue
				}
				addRTT(ds, i, j, 1+math.Floor(rng.Float64()*50))
			}
		}
		g, err := buildGraph(ds, MetricRTT, nil)
		if err != nil {
			t.Fatal(err)
		}
		path, ok := g.shortestAlternate(0, 1, 0, nil)
		bestW, bestOK := bruteBest(g, 0, 1, n)
		if ok != bestOK {
			t.Fatalf("trial %d: ok=%v brute=%v", trial, ok, bestOK)
		}
		if !ok {
			continue
		}
		w := 0.0
		for i := 0; i+1 < len(path); i++ {
			e, _ := g.directEdge(path[i], path[i+1])
			w += e.weight
		}
		if math.Abs(w-bestW) > 1e-9 {
			t.Fatalf("trial %d: dijkstra %f vs brute %f", trial, w, bestW)
		}
	}
}

func TestMetricString(t *testing.T) {
	if MetricRTT.String() != "rtt" || MetricLoss.String() != "loss" || MetricPropDelay.String() != "propagation" {
		t.Error("metric strings wrong")
	}
	if Metric(7).String() != "metric(7)" {
		t.Error("unknown metric string wrong")
	}
}
