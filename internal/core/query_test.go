package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/netsim"
	"pathsel/internal/pathset"
	"pathsel/internal/tcpmodel"
	"pathsel/internal/topology"
)

// oracleAlternates runs the single-best batch engine directly on the
// analyzer's graph, the oracle for the byte-identity property: Query
// with K=1 must reproduce its output exactly.
func oracleAlternates(a *Analyzer, metric Metric, maxVia int) ([]PairResult, error) {
	g, err := a.graphFor(metric)
	if err != nil {
		return nil, err
	}
	return a.bestAlternatesWith(g, metric, maxVia, nil, a.workers())
}

// oracleBandwidthAlternates is a direct one-hop enumeration of the
// Mathis-model bandwidth comparison, the oracle for Query's bandwidth
// branch.
func oracleBandwidthAlternates(a *Analyzer, model tcpmodel.Model, mode BandwidthMode) ([]BandwidthResult, error) {
	type pathStat struct{ rtt, loss float64 }
	st := map[dataset.PairKey]pathStat{}
	for _, k := range a.ds.PairKeys() {
		rtt, loss, ok := a.ds.TransferMeans(k)
		if !ok {
			continue
		}
		st[k] = pathStat{rtt: rtt.Mean, loss: loss.Mean}
	}
	var out []BandwidthResult
	for _, k := range a.ds.PairKeys() {
		direct, ok := st[k]
		if !ok {
			continue
		}
		defBW, err := model.BandwidthKBs(direct.rtt, direct.loss)
		if err != nil {
			return nil, err
		}
		bestBW := math.Inf(-1)
		bestVia := topology.HostID(-1)
		for _, via := range a.ds.Hosts {
			if via == k.Src || via == k.Dst {
				continue
			}
			s1, ok1 := st[dataset.PairKey{Src: k.Src, Dst: via}]
			s2, ok2 := st[dataset.PairKey{Src: via, Dst: k.Dst}]
			if !ok1 || !ok2 {
				continue
			}
			rtt := s1.rtt + s2.rtt
			var loss float64
			switch mode {
			case Optimistic:
				loss = math.Max(s1.loss, s2.loss)
			case Pessimistic:
				loss = 1 - (1-s1.loss)*(1-s2.loss)
			}
			bw, err := model.BandwidthKBs(rtt, loss)
			if err != nil {
				return nil, err
			}
			if bw > bestBW {
				bestBW, bestVia = bw, via
			}
		}
		if bestVia == -1 {
			continue
		}
		out = append(out, BandwidthResult{Key: k, DefaultKBs: defBW, AltKBs: bestBW, Via: bestVia})
	}
	return out, nil
}

func TestQueryK1ByteIdentical(t *testing.T) {
	ds := randomDataset(42, 12, 0.6)
	for _, metric := range []Metric{MetricRTT, MetricLoss} {
		for _, maxVia := range []int{0, 1, 2} {
			want, err := oracleAlternates(NewAnalyzer(ds), metric, maxVia)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("oracle empty for %v maxVia=%d", metric, maxVia)
			}
			for _, conc := range []int{1, 4, 0} {
				name := fmt.Sprintf("%v/maxVia=%d/conc=%d", metric, maxVia, conc)
				a := NewAnalyzer(ds).WithConcurrency(conc)
				rs, err := a.Query(QuerySpec{Metric: metric, MaxVia: maxVia})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := rs.PairResults(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Query K=1 diverges from the oracle", name)
				}
			}
		}
	}
}

func TestQueryBandwidthByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := dataset.New("n2", hostIDs(8))
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s == d || rng.Float64() > 0.7 {
				continue
			}
			addTransfer(ds, s, d, 20+200*rng.Float64(), 0.05*rng.Float64())
		}
	}
	model := tcpmodel.Default()
	for _, mode := range []BandwidthMode{Optimistic, Pessimistic} {
		want, err := oracleBandwidthAlternates(NewAnalyzer(ds), model, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("oracle empty for %v", mode)
		}
		for _, conc := range []int{1, 3, 0} {
			a := NewAnalyzer(ds).WithConcurrency(conc)
			rs, err := a.Query(QuerySpec{Bandwidth: &BandwidthQuery{Model: model, Mode: mode}})
			if err != nil {
				t.Fatal(err)
			}
			if got := rs.BandwidthResults(); !reflect.DeepEqual(got, want) {
				t.Errorf("%v conc=%d: bandwidth Query diverges from the oracle", mode, conc)
			}
		}
	}
}

func TestQueryExclusions(t *testing.T) {
	ds := randomDataset(3, 10, 0.6)
	a := NewAnalyzer(ds)
	g, err := a.graphFor(MetricRTT)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, len(g.hosts))
	mask[g.index[topology.HostID(2)]] = true
	mask[g.index[topology.HostID(5)]] = true
	want, err := a.bestAlternatesWith(g, MetricRTT, 0, mask, a.workers())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := a.Query(QuerySpec{Metric: MetricRTT, Exclude: Exclusions{Hosts: []topology.HostID{2, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.PairResults(); !reflect.DeepEqual(got, want) {
		t.Error("typed Exclusions diverge from the positional mask")
	}
	for _, r := range rs.PairResults() {
		if r.Key.Src == 2 || r.Key.Dst == 2 || r.Key.Src == 5 || r.Key.Dst == 5 {
			t.Fatalf("excluded endpoint surfaced: %v", r.Key)
		}
		for _, v := range r.Via {
			if v == 2 || v == 5 {
				t.Fatalf("excluded host used as relay: %v via %v", r.Key, r.Via)
			}
		}
	}
	if _, err := a.Query(QuerySpec{Metric: MetricRTT, Exclude: Exclusions{Hosts: []topology.HostID{99}}}); err == nil {
		t.Error("unknown excluded host should error")
	}
}

func TestQueryKPathSets(t *testing.T) {
	// 0->1 direct is slow; relays 2, 3, 4 offer alternates of
	// increasing cost; 0->2->3->1 adds a two-hop option.
	ds := dataset.New("k", hostIDs(5))
	addRTT(ds, 0, 1, 100)
	addRTT(ds, 0, 2, 10)
	addRTT(ds, 2, 1, 10)
	addRTT(ds, 0, 3, 20)
	addRTT(ds, 3, 1, 20)
	addRTT(ds, 0, 4, 35)
	addRTT(ds, 4, 1, 35)
	addRTT(ds, 2, 3, 5)
	a := NewAnalyzer(ds)
	rs, err := a.Query(QuerySpec{Metric: MetricRTT, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	var pp *PairPathSet
	for i := range rs.Pairs {
		if rs.Pairs[i].Key == (dataset.PairKey{Src: 0, Dst: 1}) {
			pp = &rs.Pairs[i]
		}
	}
	if pp == nil {
		t.Fatal("pair 0->1 missing")
	}
	paths := pp.Alternates.Paths
	if len(paths) != 4 {
		t.Fatalf("got %d paths, want 4", len(paths))
	}
	// Best-first, no duplicates, never the direct path.
	for i, p := range paths {
		if len(p.Hops) < 3 {
			t.Errorf("path %d is direct: %v", i, p.Hops)
		}
		if i > 0 && p.Weight < paths[i-1].Weight {
			t.Errorf("weights not ascending: %g after %g", p.Weight, paths[i-1].Weight)
		}
		for j := 0; j < i; j++ {
			if p.Equal(paths[j]) {
				t.Errorf("duplicate path %v", p.Hops)
			}
		}
	}
	wantBest := []topology.HostID{0, 2, 1}
	if !reflect.DeepEqual(paths[0].Hops, wantBest) {
		t.Errorf("best path %v, want %v", paths[0].Hops, wantBest)
	}
	// The Yen set must contain the two-hop deviation 0->2->3->1 (weight 35).
	found := false
	for _, p := range paths {
		if reflect.DeepEqual(p.Hops, []topology.HostID{0, 2, 3, 1}) {
			found = true
		}
	}
	if !found {
		t.Errorf("missing deviation 0->2->3->1 in %v", paths)
	}
	// K=1's single path is exactly the K>1 set's head.
	rs1, err := a.Query(QuerySpec{Metric: MetricRTT, K: 1, Annotate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p1 := range rs1.Pairs {
		if p1.Key == (dataset.PairKey{Src: 0, Dst: 1}) {
			if !p1.Alternates.Paths[0].Equal(paths[0]) {
				t.Error("K=1 head diverges from K=4 head")
			}
		}
	}
	// MaxVia bounds every returned path.
	rsb, err := a.Query(QuerySpec{Metric: MetricRTT, K: 4, MaxVia: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rsb.Pairs {
		for _, alt := range p.Alternates.Paths {
			if len(alt.Hops) > 3 {
				t.Errorf("maxVia=1 violated: %v", alt.Hops)
			}
		}
	}
	// Asking for more paths than exist returns what exists.
	rsx, err := a.Query(QuerySpec{Metric: MetricRTT, K: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rsx.Pairs {
		seen := map[string]bool{}
		for _, alt := range p.Alternates.Paths {
			key := fmt.Sprint(alt.Hops)
			if seen[key] {
				t.Fatalf("duplicate under large K: %v", alt.Hops)
			}
			seen[key] = true
		}
	}
}

func TestQueryAnnotate(t *testing.T) {
	ds := dataset.New("ann", hostIDs(3))
	as := func(asns ...topology.ASN) []topology.ASN { return asns }
	k01 := dataset.PairKey{Src: 0, Dst: 1}
	k02 := dataset.PairKey{Src: 0, Dst: 2}
	k21 := dataset.PairKey{Src: 2, Dst: 1}
	ds.RecordEcho(k01, netsim.Time(0), []float64{100}, []bool{false}, as(10, 30, 11), 1)
	ds.RecordEcho(k02, netsim.Time(0), []float64{10}, []bool{false}, as(10, 20, 12), 1)
	ds.RecordEcho(k21, netsim.Time(0), []float64{10}, []bool{false}, as(12, 21, 11), 1)
	addLoss(ds, 0, 1, 2, 20)
	addLoss(ds, 0, 2, 0, 20)
	addLoss(ds, 2, 1, 1, 20)
	rs, err := NewAnalyzer(ds).Query(QuerySpec{Metric: MetricRTT, Annotate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Pairs) == 0 {
		t.Fatal("no pairs")
	}
	var pp PairPathSet
	for _, p := range rs.Pairs {
		if p.Key == k01 {
			pp = p
		}
	}
	alt := pp.Alternates.Paths[0]
	if alt.LatencyMs != alt.Value {
		t.Errorf("RTT query should self-annotate latency: %g vs %g", alt.LatencyMs, alt.Value)
	}
	if math.IsNaN(alt.Loss) || alt.Loss <= 0 {
		t.Errorf("cross-metric loss not composed: %g", alt.Loss)
	}
	// Interior ASes of 0->2->1: union {10,20,12,21,11} minus src AS 10
	// and dst AS 11.
	want := []topology.ASN{12, 20, 21}
	if !reflect.DeepEqual(alt.ASes, want) {
		t.Errorf("alt ASes %v, want %v", alt.ASes, want)
	}
	// Default path 0->1 interior: {10,30,11} minus endpoints.
	if !reflect.DeepEqual(pp.Default.ASes, []topology.ASN{30}) {
		t.Errorf("default ASes %v, want [30]", pp.Default.ASes)
	}
	if d := pathset.Disjointness(pathset.LevelAS, pp.Default, alt); d != 1 {
		t.Errorf("disjointness %g, want 1", d)
	}
}

func TestQueryDisjointnessAndStrategy(t *testing.T) {
	// Two relays: 2 shares a measured hop-set with nothing; both
	// alternates are link-disjoint from the direct default, so a
	// link-level filter keeps both, and MostDisjoint picks
	// deterministically.
	ds := randomDataset(11, 9, 0.6)
	a := NewAnalyzer(ds)
	base, err := a.Query(QuerySpec{Metric: MetricRTT, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := a.Query(QuerySpec{
		Metric:            MetricRTT,
		K:                 3,
		MinDisjointness:   0.5,
		DisjointnessLevel: pathset.LevelLink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.Pairs) > len(base.Pairs) {
		t.Error("filter added pairs")
	}
	for _, p := range filtered.Pairs {
		for _, alt := range p.Alternates.Paths {
			if d := pathset.Disjointness(pathset.LevelLink, p.Default, alt); d < 0.5 {
				t.Errorf("filter leaked path with disjointness %g", d)
			}
		}
	}
	sel, err := a.Query(QuerySpec{
		Metric:   MetricRTT,
		K:        3,
		Strategy: pathset.ByLatency{},
		Keep:     1,
		Annotate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sel.Pairs {
		if p.Alternates.Len() != 1 {
			t.Fatalf("Keep=1 left %d paths", p.Alternates.Len())
		}
	}
	// Determinism across worker counts for the full K>1 pipeline.
	again, err := NewAnalyzer(ds).WithConcurrency(1).Query(QuerySpec{
		Metric:   MetricRTT,
		K:        3,
		Strategy: pathset.ByLatency{},
		Keep:     1,
		Annotate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel.Pairs, again.Pairs) {
		t.Error("K>1 query differs across worker counts")
	}
}

func TestQueryRejectsNegativeK(t *testing.T) {
	ds := randomDataset(1, 5, 0.6)
	if _, err := NewAnalyzer(ds).Query(QuerySpec{Metric: MetricRTT, K: -1}); err == nil {
		t.Error("negative K should error")
	}
}

// TestQueryK1SlabsAreCapped: K=1 results share three slabs, so every
// piece must be capped at its length; appending to one pair's hops or
// path set must reallocate, never overwrite the next pair's.
func TestQueryK1SlabsAreCapped(t *testing.T) {
	ds := randomDataset(5, 10, 0.6)
	rs, err := NewAnalyzer(ds).Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Pairs) < 2 {
		t.Fatalf("only %d pairs", len(rs.Pairs))
	}
	for _, p := range rs.Pairs {
		alt := p.Alternates.Paths[0]
		if cap(p.Default.Hops) != 2 || cap(alt.Hops) != len(alt.Hops) || cap(p.Alternates.Paths) != 1 {
			t.Fatalf("%v: caps default %d, alternate %d of %d, set %d",
				p.Key, cap(p.Default.Hops), cap(alt.Hops), len(alt.Hops), cap(p.Alternates.Paths))
		}
	}
	next := rs.Pairs[1]
	wantDef := append([]topology.HostID(nil), next.Default.Hops...)
	wantAlt := append([]topology.HostID(nil), next.Alternates.Paths[0].Hops...)
	first := rs.Pairs[0]
	_ = append(first.Default.Hops, 99)
	_ = append(first.Alternates.Paths[0].Hops, 99)
	_ = append(first.Alternates.Paths, pathset.Path{})
	if !reflect.DeepEqual(next.Default.Hops, wantDef) || !reflect.DeepEqual(next.Alternates.Paths[0].Hops, wantAlt) {
		t.Error("appending to one pair's hops changed its neighbour")
	}
}
