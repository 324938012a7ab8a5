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
// branch. Excluded hosts are neither endpoints nor relays.
func oracleBandwidthAlternates(a *Analyzer, model tcpmodel.Model, mode BandwidthMode, exclude ...topology.HostID) ([]BandwidthResult, error) {
	excluded := map[topology.HostID]bool{}
	for _, h := range exclude {
		excluded[h] = true
	}
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
		if !ok || excluded[k.Src] || excluded[k.Dst] {
			continue
		}
		defBW, err := model.BandwidthKBs(direct.rtt, direct.loss)
		if err != nil {
			return nil, err
		}
		bestBW := math.Inf(-1)
		bestVia := topology.HostID(-1)
		for _, via := range a.ds.Hosts {
			if via == k.Src || via == k.Dst || excluded[via] {
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
				if got := rs.Rows; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Query K=1 diverges from the oracle", name)
				}
			}
		}
	}
}

// headRows flattens path sets to one row per pair: each set's head
// against its default.
func headRows(pairs []PairPathSet) []PairResult {
	out := make([]PairResult, len(pairs))
	for i, p := range pairs {
		best := p.Alternates.Paths[0]
		out[i] = PairResult{
			Key:          p.Key,
			Default:      p.Default.Summary,
			Alternate:    best.Summary,
			DefaultValue: p.Default.Value,
			AltValue:     best.Value,
			Via:          best.Via(),
		}
	}
	return out
}

// TestQueryKRowsMatchK1: the rows of a K>1 query and the heads of an
// annotated K=1 query's path sets (both from Yen's engine) equal the
// batch engine's K=1 rows, and a plain K=1 query builds no paths.
func TestQueryKRowsMatchK1(t *testing.T) {
	ds := randomDataset(42, 12, 0.6)
	a := NewAnalyzer(ds)
	for _, metric := range []Metric{MetricRTT, MetricLoss} {
		for _, maxVia := range []int{0, 1, 2} {
			name := fmt.Sprintf("%v/maxVia=%d", metric, maxVia)
			one, err := a.Query(QuerySpec{Metric: metric, MaxVia: maxVia})
			if err != nil {
				t.Fatal(err)
			}
			if len(one.Rows) == 0 || one.Pairs != nil {
				t.Fatalf("%s: K=1 gave %d rows and %d path sets", name, len(one.Rows), len(one.Pairs))
			}
			three, err := a.Query(QuerySpec{Metric: metric, MaxVia: maxVia, K: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(three.Rows, one.Rows) {
				t.Errorf("%s: K=3 rows diverge from K=1 rows", name)
			}
			if !reflect.DeepEqual(headRows(three.Pairs), one.Rows) {
				t.Errorf("%s: K=3 set heads diverge from K=1 rows", name)
			}
			ann, err := a.Query(QuerySpec{Metric: metric, MaxVia: maxVia, Annotate: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(headRows(ann.Pairs), one.Rows) {
				t.Errorf("%s: annotated K=1 set heads diverge from K=1 rows", name)
			}
			if !reflect.DeepEqual(ann.Rows, one.Rows) {
				t.Errorf("%s: annotated K=1 rows diverge from K=1 rows", name)
			}
		}
	}
}

func TestQueryBandwidthByteIdentical(t *testing.T) {
	ds := bandwidthDataset(7, 8)
	model := tcpmodel.Default()
	for _, mode := range []BandwidthMode{Optimistic, Pessimistic} {
		for _, exclude := range [][]topology.HostID{nil, {2, 5}} {
			want, err := oracleBandwidthAlternates(NewAnalyzer(ds), model, mode, exclude...)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("oracle empty for %v excluding %v", mode, exclude)
			}
			for _, conc := range []int{1, 3, 0} {
				a := NewAnalyzer(ds).WithConcurrency(conc)
				rs, err := a.Query(QuerySpec{
					Bandwidth: &BandwidthQuery{Model: model, Mode: mode},
					Exclude:   Exclusions{Hosts: exclude},
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := rs.Bandwidth; !reflect.DeepEqual(got, want) {
					t.Errorf("%v excluding %v conc=%d: bandwidth Query diverges from the oracle", mode, exclude, conc)
				}
			}
		}
	}
}

// bandwidthDataset records one transfer on a random ~70% of the n×n
// ordered pairs.
func bandwidthDataset(seed int64, n int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New("n2", hostIDs(n))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d || rng.Float64() > 0.7 {
				continue
			}
			addTransfer(ds, s, d, 20+200*rng.Float64(), 0.05*rng.Float64())
		}
	}
	return ds
}

// TestQueryBandwidthSingleBest: bandwidth queries find one alternate
// per pair, take no annotation, validate their exclusions against the
// host list, and never route through an excluded host.
func TestQueryBandwidthSingleBest(t *testing.T) {
	ds := bandwidthDataset(9, 10)
	a := NewAnalyzer(ds)
	bq := &BandwidthQuery{Model: tcpmodel.Default(), Mode: Pessimistic}
	if _, err := a.Query(QuerySpec{Bandwidth: bq, K: 2}); err == nil {
		t.Error("bandwidth query with K=2 should error")
	}
	if _, err := a.Query(QuerySpec{Bandwidth: bq, Annotate: true}); err == nil {
		t.Error("annotated bandwidth query should error")
	}
	if _, err := a.Query(QuerySpec{Bandwidth: bq, Exclude: Exclusions{Hosts: []topology.HostID{99}}}); err == nil {
		t.Error("unknown excluded host should error")
	}
	// Relays 3 and 2 offer identical legs: the earlier host in the host
	// list wins the tie.
	tie := dataset.New("tie", hostIDs(4))
	addTransfer(tie, 0, 1, 200, 0.04)
	for _, via := range []int{3, 2} {
		addTransfer(tie, 0, via, 50, 0.01)
		addTransfer(tie, via, 1, 50, 0.01)
	}
	trs, err := NewAnalyzer(tie).Query(QuerySpec{Bandwidth: bq})
	if err != nil {
		t.Fatal(err)
	}
	if rows := trs.Bandwidth; len(rows) != 1 || rows[0].Via != 2 {
		t.Errorf("tied relays: %+v, want 0->1 via the earlier host 2", rows)
	}
	all, err := a.Query(QuerySpec{Bandwidth: bq, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Excluding the most popular relay must actually reroute pairs.
	uses := map[topology.HostID]int{}
	for _, r := range all.Bandwidth {
		uses[r.Via]++
	}
	top := topology.HostID(-1)
	for h, n := range uses {
		if top < 0 || n > uses[top] || (n == uses[top] && h < top) {
			top = h
		}
	}
	if top < 0 {
		t.Fatal("no pair found a relay")
	}
	rs, err := a.Query(QuerySpec{Bandwidth: bq, Exclude: Exclusions{Hosts: []topology.HostID{top}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Bandwidth) == 0 {
		t.Fatal("no pairs left after excluding one relay")
	}
	for _, r := range rs.Bandwidth {
		if r.Via == top || r.Key.Src == top || r.Key.Dst == top {
			t.Fatalf("%v: excluded host %d used, via %d", r.Key, top, r.Via)
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
	if got := rs.Rows; !reflect.DeepEqual(got, want) {
		t.Error("typed Exclusions diverge from the positional mask")
	}
	for _, r := range rs.Rows {
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
	// Annotate composes the other metric at any K; AS sets come with
	// K > 1 path sets only.
	for _, k := range []int{1, 2} {
		rs, err := NewAnalyzer(ds).Query(QuerySpec{Metric: MetricRTT, K: k, Annotate: true})
		if err != nil {
			t.Fatal(err)
		}
		var pp *PairPathSet
		for i := range rs.Pairs {
			if rs.Pairs[i].Key == k01 {
				pp = &rs.Pairs[i]
			}
		}
		if pp == nil {
			t.Fatalf("K=%d: pair %v missing", k, k01)
		}
		alt := pp.Alternates.Paths[0]
		if alt.LatencyMs != alt.Value {
			t.Errorf("K=%d: RTT query should self-annotate latency: %g vs %g", k, alt.LatencyMs, alt.Value)
		}
		if math.IsNaN(alt.Loss) || alt.Loss <= 0 {
			t.Errorf("K=%d: cross-metric loss not composed: %g", k, alt.Loss)
		}
		if k == 1 {
			if alt.ASes != nil || pp.Default.ASes != nil {
				t.Errorf("K=1: AS sets %v and %v, want none", pp.Default.ASes, alt.ASes)
			}
			continue
		}
		// Interior ASes of 0->2->1: union {10,20,12,21,11} minus src AS
		// 10 and dst AS 11.
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
}

func TestQueryRejectsNegativeK(t *testing.T) {
	ds := randomDataset(1, 5, 0.6)
	if _, err := NewAnalyzer(ds).Query(QuerySpec{Metric: MetricRTT, K: -1}); err == nil {
		t.Error("negative K should error")
	}
}
