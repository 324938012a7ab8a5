package dataset

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pathsel/internal/netsim"
	"pathsel/internal/stats"
	"pathsel/internal/topology"
)

func key(a, b int) PairKey {
	return PairKey{Src: topology.HostID(a), Dst: topology.HostID(b)}
}

func TestRecordEchoAndAggregates(t *testing.T) {
	d := New("test", []topology.HostID{0, 1, 2})
	k := key(0, 1)
	ok := d.RecordEcho(k, 100, []float64{10, 20, 30}, []bool{false, false, false}, []topology.ASN{1, 2}, 3)
	if !ok {
		t.Fatal("record failed")
	}
	d.RecordEcho(k, 200, []float64{40, 0, 0}, []bool{false, true, true}, []topology.ASN{1, 2}, 3)

	rtt, ok := d.MeanRTT(k)
	if !ok {
		t.Fatal("no RTT summary")
	}
	if rtt.N != 4 || math.Abs(rtt.Mean-25) > 1e-12 {
		t.Errorf("RTT summary %+v, want N=4 mean=25", rtt)
	}
	loss, ok := d.LossRate(k)
	if !ok {
		t.Fatal("no loss summary")
	}
	if loss.N != 6 || math.Abs(loss.Mean-2.0/6.0) > 1e-12 {
		t.Errorf("loss summary %+v, want N=6 mean=1/3", loss)
	}
	if p := d.Paths[k]; p.Measurements != 2 {
		t.Errorf("measurements = %d, want 2", p.Measurements)
	}
}

func TestRecordEchoKeepSamplesHeuristic(t *testing.T) {
	// The D2 heuristic: count only the first sample against losses.
	d := New("d2", []topology.HostID{0, 1})
	k := key(0, 1)
	d.RecordEcho(k, 0, []float64{10, 0, 0}, []bool{false, true, true}, nil, 1)
	loss, _ := d.LossRate(k)
	if loss.N != 1 || loss.Mean != 0 {
		t.Errorf("with keepSamples=1 only first sample should count: %+v", loss)
	}
	// RTT keeps every successful sample regardless.
	rtt, _ := d.MeanRTT(k)
	if rtt.N != 1 || rtt.Mean != 10 {
		t.Errorf("rtt %+v", rtt)
	}
}

func TestRecordEchoEmpty(t *testing.T) {
	d := New("x", []topology.HostID{0, 1})
	if d.RecordEcho(key(0, 1), 0, nil, nil, nil, 3) {
		t.Error("empty record should return false")
	}
	if len(d.Paths) != 0 {
		t.Error("no path should be created")
	}
}

func TestASPathRecordedOnce(t *testing.T) {
	d := New("x", []topology.HostID{0, 1})
	k := key(0, 1)
	d.RecordEcho(k, 0, []float64{1}, []bool{false}, []topology.ASN{1, 2, 3}, 1)
	d.RecordEcho(k, 1, []float64{1}, []bool{false}, []topology.ASN{9, 9}, 1)
	p := d.Paths[k]
	if len(p.ASPath) != 3 || p.ASPath[0] != 1 {
		t.Errorf("AS path should keep first observation, got %v", p.ASPath)
	}
}

func TestRemoveSparsePaths(t *testing.T) {
	d := New("x", []topology.HostID{0, 1, 2})
	for i := 0; i < 40; i++ {
		d.RecordEcho(key(0, 1), netsim.Time(i), []float64{10}, []bool{false}, nil, 1)
	}
	for i := 0; i < 5; i++ {
		d.RecordEcho(key(1, 2), netsim.Time(i), []float64{10}, []bool{false}, nil, 1)
	}
	dropped := d.RemoveSparsePaths(MinMeasurementsPerPath)
	if dropped != 1 {
		t.Errorf("dropped %d, want 1", dropped)
	}
	if _, ok := d.Paths[key(0, 1)]; !ok {
		t.Error("dense path should remain")
	}
	if _, ok := d.Paths[key(1, 2)]; ok {
		t.Error("sparse path should be gone")
	}
}

func TestRemoveHosts(t *testing.T) {
	d := New("x", []topology.HostID{0, 1, 2})
	d.RecordEcho(key(0, 1), 0, []float64{1}, []bool{false}, nil, 1)
	d.RecordEcho(key(1, 2), 0, []float64{1}, []bool{false}, nil, 1)
	d.RecordEcho(key(0, 2), 0, []float64{1}, []bool{false}, nil, 1)
	e := &Episode{At: 0, RTTMs: map[PairKey]float64{key(0, 1): 5, key(0, 2): 6}}
	d.AddEpisode(e)

	d.RemoveHosts(map[topology.HostID]bool{1: true})
	if len(d.Hosts) != 2 {
		t.Errorf("hosts = %v", d.Hosts)
	}
	if _, ok := d.Paths[key(0, 1)]; ok {
		t.Error("path touching removed host should be gone")
	}
	if _, ok := d.Paths[key(0, 2)]; !ok {
		t.Error("unrelated path should remain")
	}
	if _, ok := e.RTTMs[key(0, 1)]; ok {
		t.Error("episode entry touching removed host should be gone")
	}
}

func TestPropagationDelayQuantile(t *testing.T) {
	d := New("x", []topology.HostID{0, 1})
	k := key(0, 1)
	for i := 1; i <= 100; i++ {
		d.RecordEcho(k, netsim.Time(i), []float64{float64(i)}, []bool{false}, nil, 1)
	}
	p, ok := d.PropagationDelay(k, 0.10)
	if !ok {
		t.Fatal("no propagation estimate")
	}
	if p < 10 || p > 12 {
		t.Errorf("10th percentile = %f, want ~10.9", p)
	}
	if _, ok := d.PropagationDelay(key(1, 0), 0.1); ok {
		t.Error("missing path should not have an estimate")
	}
}

func TestBucketedAggregates(t *testing.T) {
	d := New("x", []topology.HostID{0, 1})
	k := key(0, 1)
	morning := netsim.Time(8 * 3600)  // Monday 08:00
	night := netsim.Time(2 * 3600)    // Monday 02:00
	weekend := netsim.Time(5 * 86400) // Saturday
	d.RecordEcho(k, morning, []float64{100}, []bool{false}, nil, 1)
	d.RecordEcho(k, night, []float64{10}, []bool{false}, nil, 1)
	d.RecordEcho(k, weekend, []float64{0}, []bool{true}, nil, 1)

	if s, ok := d.MeanRTTBucket(k, netsim.BucketMorning); !ok || s.Mean != 100 {
		t.Errorf("morning bucket %+v", s)
	}
	if s, ok := d.MeanRTTBucket(k, netsim.BucketNight); !ok || s.Mean != 10 {
		t.Errorf("night bucket %+v", s)
	}
	if _, ok := d.MeanRTTBucket(k, netsim.BucketAfternoon); ok {
		t.Error("empty bucket should report !ok")
	}
	if s, ok := d.LossRateBucket(k, netsim.BucketWeekend); !ok || s.Mean != 1 {
		t.Errorf("weekend loss %+v", s)
	}
	if _, ok := d.LossRateBucket(key(1, 0), netsim.BucketNight); ok {
		t.Error("missing path bucket should be !ok")
	}
}

func TestTransfers(t *testing.T) {
	d := New("n2", []topology.HostID{0, 1})
	k := key(0, 1)
	d.RecordTransfer(k, TransferSample{At: 0, MeanRTTMs: 100, LossRate: 0.02, Packets: 200})
	d.RecordTransfer(k, TransferSample{At: 1, MeanRTTMs: 200, LossRate: 0.04, Packets: 200})
	rtt, loss, ok := d.TransferMeans(k)
	if !ok {
		t.Fatal("no transfer means")
	}
	if rtt.Mean != 150 || math.Abs(loss.Mean-0.03) > 1e-12 {
		t.Errorf("rtt %f loss %f", rtt.Mean, loss.Mean)
	}
	if _, _, ok := d.TransferMeans(key(1, 0)); ok {
		t.Error("missing transfers should be !ok")
	}
}

func TestCharacteristics(t *testing.T) {
	d := New("tab", []topology.HostID{0, 1, 2, 3})
	d.RecordEcho(key(0, 1), 0, []float64{1}, []bool{false}, nil, 1)
	d.RecordEcho(key(0, 1), 1, []float64{1}, []bool{false}, nil, 1)
	d.RecordEcho(key(2, 3), 0, []float64{1}, []bool{false}, nil, 1)
	c := d.Characteristics()
	if c.Hosts != 4 || c.Measurements != 3 {
		t.Errorf("characteristics %+v", c)
	}
	// 2 distinct paths of 12 potential.
	if math.Abs(c.PercentCovered-100.0*2/12) > 1e-9 {
		t.Errorf("coverage %f", c.PercentCovered)
	}
}

func TestPairKeysDeterministic(t *testing.T) {
	d := New("x", []topology.HostID{0, 1, 2})
	d.RecordEcho(key(2, 0), 0, []float64{1}, []bool{false}, nil, 1)
	d.RecordEcho(key(0, 1), 0, []float64{1}, []bool{false}, nil, 1)
	d.RecordEcho(key(0, 2), 0, []float64{1}, []bool{false}, nil, 1)
	keys := d.PairKeys()
	if len(keys) != 3 {
		t.Fatalf("got %d keys", len(keys))
	}
	if keys[0] != key(0, 1) || keys[1] != key(0, 2) || keys[2] != key(2, 0) {
		t.Errorf("keys not ordered: %v", keys)
	}
}

func TestPairKeyHelpers(t *testing.T) {
	k := key(3, 7)
	if k.Reverse() != key(7, 3) {
		t.Error("reverse wrong")
	}
	if k.String() != "3->7" {
		t.Errorf("string %q", k.String())
	}
}

func TestRTTDist(t *testing.T) {
	d := New("x", []topology.HostID{0, 1})
	k := key(0, 1)
	d.RecordEcho(k, 0, []float64{30, 10, 20}, []bool{false, false, false}, nil, 3)
	dist, ok := d.RTTDist(k)
	if !ok || dist.N() != 3 {
		t.Fatalf("dist N=%d ok=%v", dist.N(), ok)
	}
	if m, _ := dist.Median(); m != 20 {
		t.Errorf("median %f", m)
	}
	if _, ok := d.RTTDist(key(1, 0)); ok {
		t.Error("missing dist should be !ok")
	}
}

func TestSubset(t *testing.T) {
	d := New("full", []topology.HostID{0, 1, 2, 3})
	d.RecordEcho(key(0, 1), 0, []float64{10}, []bool{false}, nil, 1)
	d.RecordEcho(key(1, 2), 0, []float64{20}, []bool{false}, nil, 1)
	d.RecordEcho(key(0, 3), 0, []float64{30}, []bool{false}, nil, 1)
	d.AddEpisode(&Episode{At: 5, RTTMs: map[PairKey]float64{
		key(0, 1): 10, key(0, 3): 30,
	}})
	d.AddEpisode(&Episode{At: 9, RTTMs: map[PairKey]float64{
		key(2, 3): 40,
	}})

	sub := d.Subset("na", []topology.HostID{0, 1, 2})
	if sub.Name != "na" {
		t.Errorf("name %q", sub.Name)
	}
	if len(sub.Hosts) != 3 {
		t.Errorf("hosts %v", sub.Hosts)
	}
	if _, ok := sub.Paths[key(0, 1)]; !ok {
		t.Error("kept-pair path missing")
	}
	if _, ok := sub.Paths[key(0, 3)]; ok {
		t.Error("path to dropped host kept")
	}
	// Episode 1 keeps only the 0->1 entry; episode 2 becomes empty and
	// is dropped.
	if len(sub.Episodes) != 1 {
		t.Fatalf("episodes %d, want 1", len(sub.Episodes))
	}
	if len(sub.Episodes[0].RTTMs) != 1 || sub.Episodes[0].RTTMs[key(0, 1)] != 10 {
		t.Errorf("episode entries %v", sub.Episodes[0].RTTMs)
	}
	// Shared path data: aggregates agree.
	a, _ := d.MeanRTT(key(0, 1))
	b, _ := sub.MeanRTT(key(0, 1))
	if a != b {
		t.Error("subset aggregates differ")
	}
	// Subsetting with hosts not in the dataset yields nothing extra.
	empty := d.Subset("none", []topology.HostID{9})
	if len(empty.Hosts) != 0 || len(empty.Paths) != 0 {
		t.Errorf("unexpected content %v %v", empty.Hosts, empty.Paths)
	}
}

// TestEchoRecords: each invocation is one record holding its time once;
// the sample iterators yield every sample with its invocation's time in
// recorded order; an invocation of more than MaxEchoRun attempts takes
// several records, and one that keeps no sample takes none.
func TestEchoRecords(t *testing.T) {
	d := New("x", []topology.HostID{0, 1})
	k := key(0, 1)
	d.RecordEcho(k, 10, []float64{1, 0, 3}, []bool{false, true, false}, nil, 3)
	d.RecordEcho(k, 20, []float64{0, 5, 6}, []bool{true, false, false}, nil, 1)
	d.RecordEcho(k, 30, []float64{0, 0}, []bool{true, true}, nil, 0)
	e := d.Paths[k].Echo
	if want := []netsim.Time{10, 20}; !slices.Equal(e.At, want) {
		t.Errorf("record times %v, want %v", e.At, want)
	}
	if want := []EchoCounts{{RTT: 2, Loss: 3}, {RTT: 2, Loss: 1}}; !slices.Equal(e.Counts, want) {
		t.Errorf("record counts %v, want %v", e.Counts, want)
	}
	type rs struct {
		at netsim.Time
		v  float64
	}
	var rtts []rs
	for at, v := range e.RTTSamples() {
		rtts = append(rtts, rs{at, v})
	}
	if want := []rs{{10, 1}, {10, 3}, {20, 5}, {20, 6}}; !slices.Equal(rtts, want) {
		t.Errorf("RTT samples %v, want %v", rtts, want)
	}
	type ls struct {
		at   netsim.Time
		lost bool
	}
	var losses []ls
	for at, lost := range e.LossSamples() {
		losses = append(losses, ls{at, lost})
	}
	if want := []ls{{10, false}, {10, true}, {10, false}, {20, true}}; !slices.Equal(losses, want) {
		t.Errorf("loss samples %v, want %v", losses, want)
	}
	if p := d.Paths[k]; p.Measurements != 3 {
		t.Errorf("measurements %d, want 3", p.Measurements)
	}

	long := New("long", []topology.HostID{0, 1})
	vals, lost := make([]float64, 2*MaxEchoRun+1), make([]bool, 2*MaxEchoRun+1)
	long.RecordEchoSized(k, 5, vals, lost, nil, len(lost), 1)
	e = long.Paths[k].Echo
	if want := []EchoCounts{{RTT: MaxEchoRun, Loss: MaxEchoRun}, {RTT: MaxEchoRun, Loss: MaxEchoRun}, {RTT: 1, Loss: 1}}; !slices.Equal(e.Counts, want) || !slices.Equal(e.At, []netsim.Time{5, 5, 5}) {
		t.Errorf("long invocation records %v at %v", e.Counts, e.At)
	}
	if cap(e.At) != len(e.At) {
		t.Errorf("long invocation sized for one: %d records in a slice of cap %d", len(e.At), cap(e.At))
	}
}

// TestBucketedAggregatesMatchPerSample: classifying each record once
// sums exactly the samples, in exactly the order, that classifying each
// sample does, so the bucketed summaries are bit-identical.
func TestBucketedAggregatesMatchPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := New("x", []topology.HostID{0, 1})
	k := key(0, 1)
	for i := 0; i < 500; i++ {
		at := netsim.Time(rng.Float64() * 14 * 86400)
		rtts, lost := make([]float64, 3), make([]bool, 3)
		for j := range rtts {
			rtts[j], lost[j] = 20+80*rng.Float64(), rng.Float64() < 0.2
		}
		d.RecordEcho(k, at, rtts, lost, nil, 1+i%3)
	}
	e := d.Paths[k].Echo
	for _, b := range netsim.Buckets() {
		var wantRTT, wantLoss stats.Accum
		for at, v := range e.RTTSamples() {
			if netsim.BucketOf(at) == b {
				wantRTT.Add(v)
			}
		}
		for at, l := range e.LossSamples() {
			if netsim.BucketOf(at) == b {
				if l {
					wantLoss.Add(1)
				} else {
					wantLoss.Add(0)
				}
			}
		}
		if got, _ := d.MeanRTTBucket(k, b); got != wantRTT.Summary() {
			t.Errorf("bucket %v: RTT %+v, per-sample %+v", b, got, wantRTT.Summary())
		}
		if got, _ := d.LossRateBucket(k, b); got != wantLoss.Summary() {
			t.Errorf("bucket %v: loss %+v, per-sample %+v", b, got, wantLoss.Summary())
		}
	}
}
