package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/netsim"
	"pathsel/internal/stats"
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
			want := rs.Rows
			rs, err = par.Query(QuerySpec{Metric: metric, MaxVia: maxVia})
			if err != nil {
				t.Fatalf("%v/maxVia=%d parallel: %v", metric, maxVia, err)
			}
			got := rs.Rows
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
			want := rs.Rows
			if rs, err = par.Query(spec); err != nil {
				t.Fatalf("%v/%v parallel: %v", metric, b, err)
			}
			if got := rs.Rows; !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%v: parallel bucketed results differ from sequential", metric, b)
			}
			compared += len(want)
		}
	}
	if compared == 0 {
		t.Fatal("no bucket had comparable pairs")
	}
	// K>1 path sets with full annotation (Yen sets, composed
	// cross-metric values, AS sets) at one worker and the default.
	spec := QuerySpec{Metric: MetricRTT, K: 3, Annotate: true}
	rs, err := seq.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Pairs) == 0 {
		t.Fatal("K=3 query found no path sets")
	}
	again, err := NewAnalyzer(ds).Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Pairs, rs.Pairs) {
		t.Error("K=3 annotated path sets differ across worker counts")
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

// tiedDataset is a random measurement set whose per-pair means are
// small integers, so equal-cost alternates are common and the searches'
// tie-breaks decide the results.
func tiedDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New("tied", hostIDs(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() < 0.3 {
				continue
			}
			k := dataset.PairKey{Src: topology.HostID(i), Dst: topology.HostID(j)}
			rtt := float64(1 + rng.Intn(6))
			for s := 0; s < 3; s++ {
				ds.RecordEcho(k, netsim.Time(s*600), []float64{rtt}, []bool{false}, nil, 1)
			}
		}
	}
	return ds
}

// TestSharedTreeMatchesPerPair locks the batch driver against the plain
// per-pair search in both directions: at every via limit, the engine
// reports an alternate for a pair exactly when a fresh
// direct-edge-excluded search finds one, with the same relay sequence.
func TestSharedTreeMatchesPerPair(t *testing.T) {
	for _, ds := range []*dataset.Dataset{benchDataset(24), tiedDataset(16, 5)} {
		for _, metric := range []Metric{MetricRTT, MetricLoss, MetricPropDelay} {
			g, err := buildGraph(ds, metric, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, maxVia := range []int{0, 1, 2} {
				rs, err := NewAnalyzer(ds).WithConcurrency(1).Query(QuerySpec{Metric: metric, MaxVia: maxVia})
				if err != nil {
					t.Fatal(err)
				}
				got := map[dataset.PairKey][]topology.HostID{}
				for _, r := range rs.Rows {
					got[r.Key] = r.Via
				}
				found := 0
				for _, k := range ds.PairKeys() {
					si, di := g.index[k.Src], g.index[k.Dst]
					if _, ok := g.directEdge(si, di); !ok {
						continue
					}
					path, ok := g.shortestAlternate(si, di, maxVia, nil)
					via, engineOK := got[k]
					if ok != engineOK {
						t.Fatalf("%s %v maxVia=%d %v: engine found=%v, per-pair found=%v", ds.Name, metric, maxVia, k, engineOK, ok)
					}
					if !ok {
						continue
					}
					found++
					want := make([]topology.HostID, 0, len(path)-2)
					for _, v := range path[1 : len(path)-1] {
						want = append(want, g.hosts[v])
					}
					if !reflect.DeepEqual(via, want) {
						t.Fatalf("%s %v maxVia=%d %v: engine relay %v, per-pair search %v", ds.Name, metric, maxVia, k, via, want)
					}
				}
				if found == 0 || found != len(got) {
					t.Fatalf("%s %v maxVia=%d: %d per-pair alternates, engine reported %d", ds.Name, metric, maxVia, found, len(got))
				}
			}
		}
	}
}

// episodeOracle computes the episode analysis the plain way: a fresh
// direct-edge-excluded search for every pair of every episode.
func episodeOracle(t *testing.T, ds *dataset.Dataset) EpisodeAnalysis {
	t.Helper()
	perPair := map[dataset.PairKey]*stats.Accum{}
	relays := map[dataset.PairKey][]topology.HostID{}
	var out EpisodeAnalysis
	for _, ep := range ds.Episodes {
		g := newGraph(ds.Hosts, nil)
		keys := dataset.SortedKeys(ep.RTTMs, nil)
		for _, k := range keys {
			v := ep.RTTMs[k]
			g.addEdge(g.index[k.Src], edge{to: g.index[k.Dst], weight: v, value: v})
		}
		for _, k := range keys {
			path, ok := g.shortestAlternate(g.index[k.Src], g.index[k.Dst], 0, nil)
			if !ok {
				continue
			}
			alt, _, err := g.composePath(MetricRTT, path)
			if err != nil {
				t.Fatal(err)
			}
			out.Unaveraged = append(out.Unaveraged, ep.RTTMs[k]-alt)
			if perPair[k] == nil {
				perPair[k] = &stats.Accum{}
			}
			perPair[k].Add(ep.RTTMs[k] - alt)
			relays[k] = append(relays[k], g.hosts[path[1]])
		}
	}
	for _, k := range dataset.SortedKeys(perPair, nil) {
		out.PairAveraged = append(out.PairAveraged, perPair[k].Mean())
		if seq := relays[k]; len(seq) > 1 {
			changes := 0
			for i := 1; i < len(seq); i++ {
				if seq[i] != seq[i-1] {
					changes++
				}
			}
			out.RelayChurn = append(out.RelayChurn, float64(changes)/float64(len(seq)-1))
		}
	}
	return out
}

// branchFixture is one episode over six hosts whose source-0 searches
// take every case of the batch driver: 0->2 is won by the relay 1, 0->3
// by its direct edge with 3 a tree leaf (replayed: 0-1-2-3), 0->1 by
// its direct edge with 1 a tree interior vertex (searched: 0-2-1, which
// runs through 1's own subtree, so a replay would get it wrong), and
// 0->4's only edge costs +Inf, so 4 is unreachable and has no
// alternate.
func branchFixture() *dataset.Dataset {
	ds := dataset.New("branches", hostIDs(6))
	ds.AddEpisode(&dataset.Episode{RTTMs: map[dataset.PairKey]float64{
		{Src: 0, Dst: 1}: 1, {Src: 1, Dst: 2}: 1, {Src: 0, Dst: 2}: 5,
		{Src: 2, Dst: 3}: 1, {Src: 0, Dst: 3}: 1, {Src: 0, Dst: 5}: 1,
		{Src: 5, Dst: 1}: 6, {Src: 2, Dst: 1}: 1, {Src: 0, Dst: 4}: math.Inf(1),
	}})
	return ds
}

// TestAlternatesFromBranches checks that the branch fixture reaches each
// case of alternatesFrom and that every case returns the per-pair path.
func TestAlternatesFromBranches(t *testing.T) {
	ds := branchFixture()
	g := newGraph(ds.Hosts, nil)
	ep := ds.Episodes[0]
	for _, k := range dataset.SortedKeys(ep.RTTMs, nil) {
		g.addEdge(int(k.Src), edge{to: int(k.Dst), weight: ep.RTTMs[k], value: ep.RTTMs[k]})
	}
	g.freeze()
	tree := newSearchScratch(len(g.hosts))
	g.sourceTree(0, nil, tree)
	relayed := tree.prev[2] == 1
	leaf := tree.prev[3] == 0 && !tree.parent[3]
	interior := tree.prev[1] == 0 && tree.parent[1]
	if !relayed || !leaf || !interior || tree.prev[4] != -1 {
		t.Fatalf("fixture misses a case: relayed %v leaf %v interior %v prev[4] %d", relayed, leaf, interior, tree.prev[4])
	}
	want := map[int][]int{1: {0, 2, 1}, 2: {0, 1, 2}, 3: {0, 1, 2, 3}}
	dsts := []int32{1, 2, 3, 4, 5}
	wa := newWorkerArenas(g, 1)
	defer wa.release()
	got := map[int][]int{}
	err := g.alternatesFrom(0, dsts, 0, nil, wa, 0, func(i int, _ edge, path []int) error {
		got[int(dsts[i])] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dsts {
		if p, ok := g.shortestAlternate(0, int(d), 0, nil); ok && !reflect.DeepEqual(want[int(d)], p) {
			t.Errorf("0->%d: per-pair search %v, fixture expects %v", d, p, want[int(d)])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("driver paths %v, want %v", got, want)
	}
}

// TestEpisodesMatchPerPair checks AnalyzeEpisodes against the per-pair
// oracle on the branch fixture and on random episodes with integer
// RTTs, where ties are common, at one and several workers.
func TestEpisodesMatchPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := dataset.New("random", hostIDs(9))
	for e := 0; e < 40; e++ {
		rtts := map[dataset.PairKey]float64{}
		for i := 0; i < 9; i++ {
			for j := 0; j < 9; j++ {
				if i != j && rng.Float64() < 0.6 {
					rtts[dataset.PairKey{Src: topology.HostID(i), Dst: topology.HostID(j)}] = float64(1 + rng.Intn(5))
				}
			}
		}
		random.AddEpisode(&dataset.Episode{At: netsim.Time(e * 1000), RTTMs: rtts})
	}
	for _, ds := range []*dataset.Dataset{branchFixture(), random} {
		want := episodeOracle(t, ds)
		if len(want.Unaveraged) == 0 {
			t.Fatalf("%s: oracle found no alternates", ds.Name)
		}
		for _, workers := range []int{1, 4} {
			got, err := NewAnalyzer(ds).WithConcurrency(workers).AnalyzeEpisodes()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d workers: AnalyzeEpisodes %+v, per-pair oracle %+v", ds.Name, workers, got, want)
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
