package core

import (
	"math"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/netsim"
	"pathsel/internal/stats"
	"pathsel/internal/tcpmodel"
	"pathsel/internal/topology"
)

func TestClassifyVerdicts(t *testing.T) {
	mk := func(defMean, altMean, v float64, n int) PairResult {
		return PairResult{
			Default:   stats.Summary{N: n, Mean: defMean, Var: v},
			Alternate: stats.Summary{N: n, Mean: altMean, Var: v},
		}
	}
	results := []PairResult{
		mk(100, 10, 1, 50), // clearly better alternate
		mk(10, 100, 1, 50), // clearly worse
		mk(50, 51, 1e6, 5), // indeterminate
		mk(0, 0, 0, 50),    // both zero
	}
	v := ClassifyVerdicts(results, 0.95)
	if v.Better != 1 || v.Worse != 1 || v.Indeterminate != 1 || v.BothZero != 1 {
		t.Fatalf("verdicts %+v", v)
	}
	if v.Total() != 4 {
		t.Errorf("total %d", v.Total())
	}
	b, i, w, z := v.Percent()
	if b != 25 || i != 25 || w != 25 || z != 25 {
		t.Errorf("percents %f %f %f %f", b, i, w, z)
	}
	var empty VerdictCounts
	if b, i, w, z := empty.Percent(); b != 0 || i != 0 || w != 0 || z != 0 {
		t.Error("empty percent should be zero")
	}
}

func TestImprovementsWithCI(t *testing.T) {
	results := []PairResult{
		{Default: stats.Summary{N: 30, Mean: 50, Var: 4}, Alternate: stats.Summary{N: 30, Mean: 40, Var: 4},
			DefaultValue: 50, AltValue: 40},
		{Default: stats.Summary{N: 30, Mean: 20, Var: 4}, Alternate: stats.Summary{N: 30, Mean: 35, Var: 4},
			DefaultValue: 20, AltValue: 35},
	}
	pts := ImprovementsWithCI(results, 0.95)
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Improvement > pts[1].Improvement {
		t.Error("points not sorted")
	}
	for _, p := range pts {
		if p.HalfWidth <= 0 {
			t.Errorf("CI half width %f should be positive", p.HalfWidth)
		}
	}
}

func TestBucketResults(t *testing.T) {
	ds := dataset.New("x", hostIDs(3))
	k01 := dataset.PairKey{Src: 0, Dst: 1}
	k02 := dataset.PairKey{Src: 0, Dst: 2}
	k21 := dataset.PairKey{Src: 2, Dst: 1}
	morning := netsim.Time(8 * 3600)
	night := netsim.Time(2 * 3600)
	// Morning: default congested (200), alternate 60.
	for i := 0; i < 5; i++ {
		ds.RecordEcho(k01, morning+netsim.Time(i), []float64{200}, []bool{false}, nil, 1)
		ds.RecordEcho(k02, morning+netsim.Time(i), []float64{30}, []bool{false}, nil, 1)
		ds.RecordEcho(k21, morning+netsim.Time(i), []float64{30}, []bool{false}, nil, 1)
		// Night: default fine (50), alternate 60.
		ds.RecordEcho(k01, night+netsim.Time(i), []float64{50}, []bool{false}, nil, 1)
		ds.RecordEcho(k02, night+netsim.Time(i), []float64{30}, []bool{false}, nil, 1)
		ds.RecordEcho(k21, night+netsim.Time(i), []float64{30}, []bool{false}, nil, 1)
	}
	a := NewAnalyzer(ds)
	bucket := func(metric Metric, b netsim.Bucket) ([]PairResult, error) {
		rs, err := a.Query(QuerySpec{Metric: metric, Bucket: &b})
		return rs.Rows, err
	}
	mres, err := bucket(MetricRTT, netsim.BucketMorning)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := bucket(MetricRTT, netsim.BucketNight)
	if err != nil {
		t.Fatal(err)
	}
	if len(mres) != 1 || len(nres) != 1 {
		t.Fatalf("results %d/%d", len(mres), len(nres))
	}
	if math.Abs(mres[0].Improvement()-140) > 1e-9 {
		t.Errorf("morning improvement %f, want 140", mres[0].Improvement())
	}
	if math.Abs(nres[0].Improvement()-(-10)) > 1e-9 {
		t.Errorf("night improvement %f, want -10", nres[0].Improvement())
	}
	if _, err := bucket(MetricPropDelay, netsim.BucketNight); err == nil {
		t.Error("prop-delay bucketing should be rejected")
	}
	nightB := netsim.BucketNight
	if _, err := a.Query(QuerySpec{Bucket: &nightB, Bandwidth: &BandwidthQuery{Model: tcpmodel.Default()}}); err == nil {
		t.Error("a bucketed bandwidth query should be rejected")
	}
	// Bucketed graphs stage through the same path as the cached ones:
	// a path whose endpoint is outside the host list is an error, not a
	// silent edge from vertex 0.
	stray := dataset.New("stray", hostIDs(3))
	stray.RecordEcho(dataset.PairKey{Src: 0, Dst: 7}, night, []float64{30}, []bool{false}, nil, 1)
	stray.RecordEcho(k01, night, []float64{50}, []bool{false}, nil, 1)
	if _, err := NewAnalyzer(stray).Query(QuerySpec{Metric: MetricRTT, Bucket: &nightB}); err == nil {
		t.Error("a path to a host outside the host list should be rejected")
	}
}

func TestGreedyRemoveTop(t *testing.T) {
	// Host 4 is a magic shortcut for two slow pairs; removing it should
	// be the greedy choice, and the improvement should collapse.
	ds := dataset.New("x", hostIDs(5))
	addRTT(ds, 0, 1, 200)
	addRTT(ds, 2, 3, 200)
	addRTT(ds, 0, 4, 10)
	addRTT(ds, 4, 1, 10)
	addRTT(ds, 2, 4, 10)
	addRTT(ds, 4, 3, 10)
	// A mediocre alternate for 0->1 via 2 so a result survives removal.
	addRTT(ds, 0, 2, 150)
	addRTT(ds, 2, 1, 150)
	a := NewAnalyzer(ds)
	steps, final, err := a.GreedyRemoveTop(MetricRTT, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 {
		t.Fatalf("steps %v", steps)
	}
	if steps[0].Removed != 4 {
		t.Errorf("removed %d, want host 4", steps[0].Removed)
	}
	// After removal only 0->1 has an alternate (via 2, worse than
	// default).
	if len(final) != 1 || final[0].Improvement() >= 0 {
		t.Errorf("final %+v", final)
	}
}

func TestGreedyRemoveStopsWhenExhausted(t *testing.T) {
	ds := dataset.New("x", hostIDs(3))
	addRTT(ds, 0, 1, 100)
	addRTT(ds, 0, 2, 10)
	addRTT(ds, 2, 1, 10)
	a := NewAnalyzer(ds)
	steps, _, err := a.GreedyRemoveTop(MetricRTT, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) > 3 {
		t.Errorf("removed %d hosts from a 3-host dataset", len(steps))
	}
}

func TestImprovementContributions(t *testing.T) {
	ds := dataset.New("x", hostIDs(4))
	addRTT(ds, 0, 1, 100)
	addRTT(ds, 0, 2, 10)
	addRTT(ds, 2, 1, 10) // via 2: improvement 80
	addRTT(ds, 0, 3, 45)
	addRTT(ds, 3, 1, 45) // via 3: improvement 10
	a := NewAnalyzer(ds)
	contribs, err := a.ImprovementContributions(MetricRTT)
	if err != nil {
		t.Fatal(err)
	}
	byHost := map[topology.HostID]float64{}
	total := 0.0
	for _, c := range contribs {
		byHost[c.Host] = c.Value
		total += c.Value
	}
	// Normalized to mean 100 over 4 hosts -> total 400.
	if math.Abs(total-400) > 1e-6 {
		t.Errorf("total %f, want 400", total)
	}
	if byHost[2] <= byHost[3] || byHost[3] <= 0 {
		t.Errorf("contributions %v: host 2 should dominate host 3", byHost)
	}
	if byHost[0] != 0 || byHost[1] != 0 {
		t.Errorf("endpoints should contribute 0: %v", byHost)
	}
	// Weighting check: 80/10 ratio preserved.
	if math.Abs(byHost[2]/byHost[3]-8) > 1e-6 {
		t.Errorf("ratio %f, want 8", byHost[2]/byHost[3])
	}
}

func TestASAppearances(t *testing.T) {
	ds := dataset.New("x", hostIDs(3))
	k01 := dataset.PairKey{Src: 0, Dst: 1}
	k02 := dataset.PairKey{Src: 0, Dst: 2}
	k21 := dataset.PairKey{Src: 2, Dst: 1}
	record := func(k dataset.PairKey, rtt float64, asPath []topology.ASN) {
		ds.RecordEcho(k, 0, []float64{rtt}, []bool{false}, asPath, 1)
	}
	record(k01, 100, []topology.ASN{10, 50, 11}) // default crosses AS 50
	record(k02, 20, []topology.ASN{10, 60, 12})
	record(k21, 20, []topology.ASN{12, 60, 11}) // alternate crosses AS 60
	a := NewAnalyzer(ds)
	counts, err := a.ASAppearances(MetricRTT, 0)
	if err != nil {
		t.Fatal(err)
	}
	byAS := map[topology.ASN]ASCount{}
	for _, c := range counts {
		byAS[c.AS] = c
	}
	if c := byAS[50]; c.Direct != 1 || c.Alternate != 0 {
		t.Errorf("AS 50: %+v", c)
	}
	if c := byAS[60]; c.Direct != 0 || c.Alternate != 1 {
		t.Errorf("AS 60: %+v", c)
	}
	// AS 12 appears once in the alternate (dedup across hops).
	if c := byAS[12]; c.Alternate != 1 {
		t.Errorf("AS 12: %+v", c)
	}
}

func TestClassifyDelayGroups(t *testing.T) {
	cases := []struct {
		x, y float64
		want DelayGroup
	}{
		{10, 5, Group1},   // alternate better in both
		{10, 15, Group2},  // prop gain exceeds total
		{10, -5, Group6},  // alternate wins despite worse propagation
		{-10, -5, Group4}, // default better in both
		{-10, -15, Group5},
		{-10, 5, Group3}, // default wins despite worse propagation
		{0, 5, GroupUnclassified},
	}
	for _, c := range cases {
		if got := classifyDelay(c.x, c.y); got != c.want {
			t.Errorf("classifyDelay(%f,%f) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestDecomposeDelay(t *testing.T) {
	ds := dataset.New("x", hostIDs(3))
	// Default: propagation ~50 with heavy congestion tail (mean ~110).
	defVals := []float64{50, 50, 50, 50, 150, 150, 150, 150, 100, 100}
	addRTT(ds, 0, 1, defVals...)
	// Alternate hops: propagation 30 each, no congestion.
	addRTT(ds, 0, 2, 30, 30, 30, 30, 30)
	addRTT(ds, 2, 1, 30, 30, 30, 30, 30)
	a := NewAnalyzer(ds)
	decs, err := a.DecomposeDelay()
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 1 {
		t.Fatalf("%d decompositions", len(decs))
	}
	d := decs[0]
	if d.TotalDiff <= 0 {
		t.Errorf("alternate should win on mean: %f", d.TotalDiff)
	}
	// Default propagation est ~50, alternate 60: PropDiff ~ -10.
	if d.PropDiff > 0 {
		t.Errorf("alternate should have worse propagation: %f", d.PropDiff)
	}
	if d.Group != Group6 {
		t.Errorf("group %v, want Group6 (congestion avoidance)", d.Group)
	}
	if math.Abs(d.QueueDiff()-(d.TotalDiff-d.PropDiff)) > 1e-12 {
		t.Error("QueueDiff inconsistent")
	}
	census := GroupCensus(decs)
	if census[Group6] != 1 {
		t.Errorf("census %v", census)
	}
}

func TestCrossMetric(t *testing.T) {
	// The RTT-best alternate (via 2) is lossier than the default; the
	// loss-best alternate (via 3) is slower.
	ds := dataset.New("x", hostIDs(4))
	record := func(src, dst int, rtt float64, lost, total int) {
		k := dataset.PairKey{Src: topology.HostID(src), Dst: topology.HostID(dst)}
		for i := 0; i < total; i++ {
			isLost := i < lost
			r := []float64{rtt}
			ds.RecordEcho(k, netsim.Time(i), r, []bool{isLost}, nil, 1)
		}
	}
	record(0, 1, 100, 1, 100) // default: 100 ms, 1% loss
	record(0, 2, 20, 5, 100)  // fast but lossy relay
	record(2, 1, 20, 5, 100)
	record(0, 3, 60, 0, 100) // slow but clean relay
	record(3, 1, 60, 0, 100)
	k01 := dataset.PairKey{Src: 0, Dst: 1}
	a := NewAnalyzer(ds)
	// cross returns the k01 row: the improvement under the selecting
	// metric and the same alternate's improvement under the other one.
	cross := func(metric Metric) (selectImp, judgeImp float64) {
		t.Helper()
		rs, err := a.Query(QuerySpec{Metric: metric, MaxVia: 1, Annotate: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rs.Pairs {
			if p.Key != k01 {
				continue
			}
			alt := p.Alternates.Paths[0]
			if metric == MetricRTT {
				return p.Default.Value - alt.Value, p.Default.Loss - alt.Loss
			}
			return p.Default.Value - alt.Value, p.Default.LatencyMs - alt.LatencyMs
		}
		t.Fatalf("%v: no result for %v", metric, k01)
		return 0, 0
	}
	sel, judge := cross(MetricRTT)
	if sel <= 0 {
		t.Errorf("RTT improvement %f should be positive", sel)
	}
	// Composed loss via 2: 1-(0.95)^2 = 9.75% vs default 1%: worse.
	if judge >= 0 {
		t.Errorf("loss judgement %f should be negative (fast relay is lossy)", judge)
	}

	// The reverse cross: the loss-best alternate (via 3) has RTT 120
	// against the default's 100, a negative RTT judgement.
	sel, judge = cross(MetricLoss)
	if sel <= 0 {
		t.Errorf("loss improvement %f should be positive", sel)
	}
	if judge >= 0 {
		t.Errorf("RTT judgement %f should be negative (clean relay is slow)", judge)
	}
}

// TestAnnotatedDefaultIsMeasured: a default path's cross-metric
// annotation is its measured edge mean bit for bit, including a
// 100%-loss default that composing through the clamped loss weight
// would report as 0.999999.
func TestAnnotatedDefaultIsMeasured(t *testing.T) {
	ds := dataset.New("x", hostIDs(3))
	// echo records one loss observation and, lost or not, one RTT
	// sample, so a path can be both fully lossy and RTT-measured.
	echo := func(src, dst int, rtt float64, lost bool) {
		k := dataset.PairKey{Src: topology.HostID(src), Dst: topology.HostID(dst)}
		ds.RecordEcho(k, 0, []float64{0, rtt}, []bool{lost, false}, nil, 1)
	}
	echo(0, 1, 100, true) // every probe lost
	echo(0, 1, 40, true)
	for i := 0; i < 7; i++ {
		echo(1, 0, 30.1+float64(i), i < 3) // 3/7 has no exact binary form
	}
	for _, e := range [][2]int{{0, 2}, {2, 1}, {1, 2}, {2, 0}} {
		echo(e[0], e[1], 10, false)
	}
	a := NewAnalyzer(ds)
	for _, metric := range []Metric{MetricRTT, MetricLoss, MetricPropDelay} {
		rs, err := a.Query(QuerySpec{Metric: metric, Annotate: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Pairs) == 0 {
			t.Fatalf("%v: no pairs", metric)
		}
		for _, p := range rs.Pairs {
			loss, _ := ds.LossRate(p.Key)
			rtt, _ := ds.MeanRTT(p.Key)
			if math.Float64bits(p.Default.Loss) != math.Float64bits(loss.Mean) {
				t.Errorf("%v %v: default loss %v, measured %v", metric, p.Key, p.Default.Loss, loss.Mean)
			}
			if math.Float64bits(p.Default.LatencyMs) != math.Float64bits(rtt.Mean) {
				t.Errorf("%v %v: default latency %v, measured %v", metric, p.Key, p.Default.LatencyMs, rtt.Mean)
			}
		}
	}
	if l, _ := ds.LossRate(dataset.PairKey{Src: 0, Dst: 1}); l.Mean != 1 {
		t.Fatalf("fixture: 0->1 loss %v, want 1", l.Mean)
	}
}
