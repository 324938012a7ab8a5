package core

import (
	"math"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/tcpmodel"
	"pathsel/internal/topology"
)

func TestBestAlternatesRTT(t *testing.T) {
	ds := dataset.New("x", hostIDs(3))
	addRTT(ds, 0, 1, 100, 102, 98)
	addRTT(ds, 1, 0, 100, 100)
	addRTT(ds, 0, 2, 20, 22, 18)
	addRTT(ds, 2, 1, 20, 21, 19)
	a := NewAnalyzer(ds)
	rs, err := a.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	results := rs.PairResults()
	// Pairs with an alternate: only 0->1 (others lack alternates).
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1: %+v", len(results), results)
	}
	r := results[0]
	if r.Key != (dataset.PairKey{Src: 0, Dst: 1}) {
		t.Fatalf("key %v", r.Key)
	}
	if math.Abs(r.DefaultValue-100) > 1e-9 || math.Abs(r.AltValue-40) > 1e-9 {
		t.Errorf("default %f alt %f", r.DefaultValue, r.AltValue)
	}
	if math.Abs(r.Improvement()-60) > 1e-9 {
		t.Errorf("improvement %f", r.Improvement())
	}
	if math.Abs(r.Ratio()-2.5) > 1e-9 {
		t.Errorf("ratio %f", r.Ratio())
	}
	if len(r.Via) != 1 || r.Via[0] != 2 {
		t.Errorf("via %v", r.Via)
	}
	if r.Alternate.SE2() <= 0 {
		t.Error("alternate summary should carry variance")
	}
}

func TestBestAlternatesLossComposition(t *testing.T) {
	ds := dataset.New("x", hostIDs(3))
	addLoss(ds, 0, 1, 20, 100) // 20%
	addLoss(ds, 0, 2, 5, 100)  // 5%
	addLoss(ds, 2, 1, 5, 100)  // 5%
	a := NewAnalyzer(ds)
	rs, err := a.Query(QuerySpec{Metric: MetricLoss})
	if err != nil {
		t.Fatal(err)
	}
	results := rs.PairResults()
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	want := 1 - 0.95*0.95
	if math.Abs(r.AltValue-want) > 1e-9 {
		t.Errorf("alt loss %f, want %f", r.AltValue, want)
	}
	if r.Improvement() <= 0 {
		t.Error("alternate should be better")
	}
}

func TestBestAlternatesWorseAlternate(t *testing.T) {
	// The only alternate is worse than the default: improvement < 0 but
	// the result is still reported (the CDF's negative side).
	ds := dataset.New("x", hostIDs(3))
	addRTT(ds, 0, 1, 10)
	addRTT(ds, 0, 2, 50)
	addRTT(ds, 2, 1, 50)
	a := NewAnalyzer(ds)
	rs, err := a.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	results := rs.PairResults()
	if len(results) != 1 || results[0].Improvement() >= 0 {
		t.Fatalf("expected one negative-improvement result, got %+v", results)
	}
}

func TestImprovementAndRatioCDF(t *testing.T) {
	results := []PairResult{
		{DefaultValue: 100, AltValue: 50},
		{DefaultValue: 100, AltValue: 150},
		{DefaultValue: 60, AltValue: 60},
	}
	c := ImprovementCDF(results)
	if c.N() != 3 {
		t.Fatalf("N=%d", c.N())
	}
	// FractionBelow is P(X <= x): the -50 and 0 improvements count.
	if f := c.FractionBelow(0); math.Abs(f-2.0/3.0) > 1e-9 {
		t.Errorf("fraction at or below 0 = %f", f)
	}
	rc := RatioCDF(results)
	if rc.N() != 3 {
		t.Fatalf("ratio N=%d", rc.N())
	}
	if f := rc.FractionAbove(1.5); math.Abs(f-1.0/3.0) > 1e-9 {
		t.Errorf("ratio fraction above 1.5 = %f", f)
	}
	// Infinite ratios are excluded.
	rc2 := RatioCDF([]PairResult{{DefaultValue: 5, AltValue: 0}})
	if rc2.N() != 0 {
		t.Error("infinite ratio should be dropped")
	}
}

func addTransfer(ds *dataset.Dataset, src, dst int, rtt, loss float64) {
	k := dataset.PairKey{Src: topology.HostID(src), Dst: topology.HostID(dst)}
	ds.RecordTransfer(k, dataset.TransferSample{At: 0, MeanRTTMs: rtt, LossRate: loss, Packets: 100})
}

func TestBestBandwidthAlternates(t *testing.T) {
	ds := dataset.New("n2", hostIDs(3))
	addTransfer(ds, 0, 1, 200, 0.04) // slow lossy default
	addTransfer(ds, 0, 2, 50, 0.01)
	addTransfer(ds, 2, 1, 50, 0.01)
	a := NewAnalyzer(ds)
	model := tcpmodel.Default()

	for _, mode := range []BandwidthMode{Optimistic, Pessimistic} {
		rs, err := a.Query(QuerySpec{Bandwidth: &BandwidthQuery{Model: model, Mode: mode}})
		if err != nil {
			t.Fatal(err)
		}
		results := rs.BandwidthResults()
		if len(results) != 1 {
			t.Fatalf("%v: got %d results", mode, len(results))
		}
		r := results[0]
		if r.Via != 2 {
			t.Errorf("%v: via %d", mode, r.Via)
		}
		defBW, _ := model.BandwidthKBs(200, 0.04)
		if math.Abs(r.DefaultKBs-defBW) > 1e-9 {
			t.Errorf("%v: default %f, want %f", mode, r.DefaultKBs, defBW)
		}
		var wantLoss float64
		if mode == Optimistic {
			wantLoss = 0.01
		} else {
			wantLoss = 1 - 0.99*0.99
		}
		altBW, _ := model.BandwidthKBs(100, wantLoss)
		if math.Abs(r.AltKBs-altBW) > 1e-9 {
			t.Errorf("%v: alt %f, want %f", mode, r.AltKBs, altBW)
		}
		if r.Improvement() <= 0 || r.Ratio() <= 1 {
			t.Errorf("%v: alternate should win: %+v", mode, r)
		}
	}
}

func TestOptimisticAtLeastPessimistic(t *testing.T) {
	// The optimistic composition never has more loss than the
	// pessimistic one, so its bandwidth is at least as high.
	ds := dataset.New("n2", hostIDs(4))
	addTransfer(ds, 0, 1, 120, 0.03)
	addTransfer(ds, 0, 2, 60, 0.02)
	addTransfer(ds, 2, 1, 70, 0.025)
	addTransfer(ds, 0, 3, 40, 0.01)
	addTransfer(ds, 3, 1, 90, 0.04)
	a := NewAnalyzer(ds)
	model := tcpmodel.Default()
	rs, err := a.Query(QuerySpec{Bandwidth: &BandwidthQuery{Model: model, Mode: Optimistic}})
	if err != nil {
		t.Fatal(err)
	}
	opt := rs.BandwidthResults()
	rs, err = a.Query(QuerySpec{Bandwidth: &BandwidthQuery{Model: model, Mode: Pessimistic}})
	if err != nil {
		t.Fatal(err)
	}
	pess := rs.BandwidthResults()
	if len(opt) != len(pess) {
		t.Fatalf("result lengths differ")
	}
	for i := range opt {
		if opt[i].AltKBs < pess[i].AltKBs-1e-9 {
			t.Errorf("optimistic %f below pessimistic %f", opt[i].AltKBs, pess[i].AltKBs)
		}
	}
}

func TestBandwidthModeString(t *testing.T) {
	if Optimistic.String() != "optimistic" || Pessimistic.String() != "pessimistic" {
		t.Error("mode strings wrong")
	}
	if BandwidthMode(5).String() != "mode(5)" {
		t.Error("unknown mode string wrong")
	}
}

func TestBestMedianAlternates(t *testing.T) {
	ds := dataset.New("x", hostIDs(3))
	// Symmetric-ish distributions: mean and median should agree well.
	addRTT(ds, 0, 1, 95, 100, 105, 98, 102)
	addRTT(ds, 0, 2, 18, 20, 22)
	addRTT(ds, 2, 1, 19, 20, 21)
	a := NewAnalyzer(ds)
	results, err := a.BestMedianAlternates()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	if math.Abs(r.MeanImprovement-60) > 1e-9 {
		t.Errorf("mean improvement %f, want 60", r.MeanImprovement)
	}
	if math.Abs(r.MedianImprovement-60) > 2 {
		t.Errorf("median improvement %f, want ~60", r.MedianImprovement)
	}
}

func TestMedianRobustToOutlier(t *testing.T) {
	// A single huge outlier on the default path skews the mean but not
	// the median: the two columns must diverge.
	ds := dataset.New("x", hostIDs(3))
	addRTT(ds, 0, 1, 50, 50, 50, 50, 5000)
	addRTT(ds, 0, 2, 30, 30, 30)
	addRTT(ds, 2, 1, 30, 30, 30)
	a := NewAnalyzer(ds)
	results, err := a.BestMedianAlternates()
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	// Mean default = 1040 -> improvement 980. Median default = 50 ->
	// improvement -10 (alternate worse by median).
	if r.MeanImprovement < 900 {
		t.Errorf("mean improvement %f, want ~980", r.MeanImprovement)
	}
	if r.MedianImprovement > 0 {
		t.Errorf("median improvement %f, want negative", r.MedianImprovement)
	}
}

func TestAnalyzeEpisodes(t *testing.T) {
	ds := dataset.New("uw4a", hostIDs(3))
	k01 := dataset.PairKey{Src: 0, Dst: 1}
	k02 := dataset.PairKey{Src: 0, Dst: 2}
	k21 := dataset.PairKey{Src: 2, Dst: 1}
	// Episode 1: alternate 0->2->1 = 30 vs default 100: diff 70.
	ds.AddEpisode(&dataset.Episode{At: 0, RTTMs: map[dataset.PairKey]float64{
		k01: 100, k02: 15, k21: 15,
	}})
	// Episode 2: alternate = 130 vs default 100: diff -30.
	ds.AddEpisode(&dataset.Episode{At: 1000, RTTMs: map[dataset.PairKey]float64{
		k01: 100, k02: 65, k21: 65,
	}})
	a := NewAnalyzer(ds)
	res, err := a.AnalyzeEpisodes()
	if err != nil {
		t.Fatal(err)
	}
	// Only pair 0->1 has alternates in both episodes.
	if len(res.Unaveraged) != 2 {
		t.Fatalf("unaveraged %v", res.Unaveraged)
	}
	if len(res.PairAveraged) != 1 {
		t.Fatalf("pairAveraged %v", res.PairAveraged)
	}
	if math.Abs(res.PairAveraged[0]-20) > 1e-9 { // (70 + -30)/2
		t.Errorf("pair average %f, want 20", res.PairAveraged[0])
	}
	seen := map[float64]bool{}
	for _, v := range res.Unaveraged {
		seen[math.Round(v)] = true
	}
	if !seen[70] || !seen[-30] {
		t.Errorf("unaveraged %v, want {70,-30}", res.Unaveraged)
	}
}

func TestAnalyzeEpisodesEmpty(t *testing.T) {
	ds := dataset.New("x", hostIDs(2))
	if _, err := NewAnalyzer(ds).AnalyzeEpisodes(); err == nil {
		t.Error("no episodes should error")
	}
}

func TestBestAlternatesDeterministic(t *testing.T) {
	ds := dataset.New("x", hostIDs(5))
	vals := []struct{ s, d, v int }{
		{0, 1, 50}, {0, 2, 10}, {2, 1, 10}, {0, 3, 20}, {3, 1, 20},
		{1, 0, 50}, {2, 0, 10}, {1, 2, 10}, {4, 1, 5}, {0, 4, 5},
	}
	for _, e := range vals {
		addRTT(ds, e.s, e.d, float64(e.v))
	}
	a := NewAnalyzer(ds)
	rs, err := a.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	r1 := rs.PairResults()
	rs, err = a.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		t.Fatal(err)
	}
	r2 := rs.PairResults()
	if len(r1) != len(r2) {
		t.Fatal("nondeterministic result count")
	}
	for i := range r1 {
		if r1[i].Key != r2[i].Key || r1[i].AltValue != r2[i].AltValue {
			t.Fatalf("nondeterministic result %d", i)
		}
	}
}

func TestEpisodeRelayChurn(t *testing.T) {
	ds := dataset.New("churn", hostIDs(4))
	k01 := dataset.PairKey{Src: 0, Dst: 1}
	k02 := dataset.PairKey{Src: 0, Dst: 2}
	k21 := dataset.PairKey{Src: 2, Dst: 1}
	k03 := dataset.PairKey{Src: 0, Dst: 3}
	k31 := dataset.PairKey{Src: 3, Dst: 1}
	// Episode 1: relay 2 best; episode 2: relay 3 best; episode 3: relay 2.
	ds.AddEpisode(&dataset.Episode{At: 0, RTTMs: map[dataset.PairKey]float64{
		k01: 100, k02: 10, k21: 10, k03: 40, k31: 40,
	}})
	ds.AddEpisode(&dataset.Episode{At: 1, RTTMs: map[dataset.PairKey]float64{
		k01: 100, k02: 40, k21: 40, k03: 10, k31: 10,
	}})
	ds.AddEpisode(&dataset.Episode{At: 2, RTTMs: map[dataset.PairKey]float64{
		k01: 100, k02: 10, k21: 10, k03: 40, k31: 40,
	}})
	res, err := NewAnalyzer(ds).AnalyzeEpisodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RelayChurn) != 1 {
		t.Fatalf("churn entries %v", res.RelayChurn)
	}
	// Relay flips at both transitions: churn = 2/2 = 1.
	if math.Abs(res.RelayChurn[0]-1) > 1e-12 {
		t.Errorf("churn %f, want 1", res.RelayChurn[0])
	}
}
