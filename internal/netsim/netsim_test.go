package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pathsel/internal/topology"
)

func testNetwork(t *testing.T) (*topology.Topology, *Network) {
	t.Helper()
	top, err := topology.Generate(topology.DefaultConfig(topology.Era1999))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return top, New(top, DefaultConfig())
}

func TestUtilizationBounds(t *testing.T) {
	top, n := testNetwork(t)
	times := []Time{0, 3600, 12 * 3600, 86400 * 3, 86400*5 + 7200, 86400 * 6}
	for _, l := range top.Links {
		for _, tm := range times {
			u := n.Utilization(l.ID, tm)
			if u < 0.02-1e-12 || u > 0.99+1e-12 {
				t.Fatalf("utilization %f out of bounds for link %d at %v", u, l.ID, tm)
			}
		}
	}
}

func TestUtilizationDeterministic(t *testing.T) {
	top, n := testNetwork(t)
	n2 := New(top, DefaultConfig())
	for _, l := range top.Links[:20] {
		for _, tm := range []Time{100, 9999, 86400} {
			if n.Utilization(l.ID, tm) != n2.Utilization(l.ID, tm) {
				t.Fatalf("utilization not deterministic for link %d", l.ID)
			}
		}
	}
}

func TestDiurnalPattern(t *testing.T) {
	top, n := testNetwork(t)
	// Averaged across links, peak-hour utilization must exceed
	// night-time utilization on a weekday.
	peakSum, nightSum := 0.0, 0.0
	day := Time(2 * 86400) // Wednesday
	for _, l := range top.Links {
		peakSum += n.Utilization(l.ID, day+Time(13*3600)) // 13:00 PST
		nightSum += n.Utilization(l.ID, day+Time(3*3600)) // 03:00 PST
	}
	if peakSum <= nightSum*1.15 {
		t.Errorf("expected clear diurnal pattern: peak %f vs night %f", peakSum, nightSum)
	}
}

func TestWeekendQuieter(t *testing.T) {
	top, n := testNetwork(t)
	wkSum, weSum := 0.0, 0.0
	for _, l := range top.Links {
		wkSum += n.Utilization(l.ID, Time(2*86400+13*3600)) // Wednesday 13:00
		weSum += n.Utilization(l.ID, Time(5*86400+13*3600)) // Saturday 13:00
	}
	if weSum >= wkSum {
		t.Errorf("weekend load %f should be below weekday load %f", weSum, wkSum)
	}
}

func TestQueueDelayIncreasing(t *testing.T) {
	// The M/M/1 queue-delay curve must be monotone in utilization; we
	// verify indirectly: for a fixed link, higher utilization times give
	// at least as much queue delay.
	top, n := testNetwork(t)
	l := top.Links[0]
	type sample struct{ u, q float64 }
	var ss []sample
	for h := 0; h < 24; h++ {
		tm := Time(2*86400 + h*3600)
		ss = append(ss, sample{n.Utilization(l.ID, tm), n.QueueDelayMs(l.ID, tm)})
	}
	for i := range ss {
		for j := range ss {
			if ss[i].u < ss[j].u && ss[i].q > ss[j].q+1e-9 {
				t.Fatalf("queue delay not monotone in utilization: u=%f q=%f vs u=%f q=%f",
					ss[i].u, ss[i].q, ss[j].u, ss[j].q)
			}
		}
	}
}

func TestQueueDelayCappedByBuffer(t *testing.T) {
	top, n := testNetwork(t)
	cfg := n.Config()
	for _, l := range top.Links {
		s := cfg.PacketBytes * 8 / (l.CapacityMbps * 1000)
		for h := 0; h < 48; h++ {
			q := n.QueueDelayMs(l.ID, Time(h*1800))
			if q < 0 || q > s*cfg.BufferPackets+cfg.BufferMs+1e-9 {
				t.Fatalf("queue delay %f outside [0, %f] for link %d", q, s*cfg.BufferPackets+cfg.BufferMs, l.ID)
			}
		}
	}
}

func TestLossProbBounds(t *testing.T) {
	top, n := testNetwork(t)
	for _, l := range top.Links {
		for h := 0; h < 24; h++ {
			p := n.LossProb(l.ID, Time(3*86400+h*3600))
			if p < 0 || p > 1 {
				t.Fatalf("loss probability %f out of [0,1]", p)
			}
			if p < n.Config().BaseLoss {
				t.Fatalf("loss %f below floor %f", p, n.Config().BaseLoss)
			}
		}
	}
}

func TestOutagesHappen(t *testing.T) {
	top, n := testNetwork(t)
	// Over a simulated fortnight across all links, at least one outage
	// window must be active at some probe instant.
	found := false
	for _, l := range top.Links {
		for h := 0; h < 14*24 && !found; h++ {
			if n.LossProb(l.ID, Time(h*3600+1800)) > 0.5 {
				found = true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Error("no outage windows observed in two weeks across all links; flap model inactive?")
	}
}

func TestEvalLinksComposition(t *testing.T) {
	top, n := testNetwork(t)
	links := []topology.LinkID{top.Links[0].ID, top.Links[2].ID, top.Links[4].ID}
	tm := Time(3600 * 30)
	st := n.EvalLinks(links, tm)
	wantDelay, wantProp, surv := 0.0, 0.0, 1.0
	for _, lid := range links {
		wantDelay += n.LinkDelayMs(lid, tm)
		wantProp += n.LinkPropMs(lid, tm)
		surv *= 1 - n.LossProb(lid, tm)
	}
	if math.Abs(st.DelayMs-wantDelay) > 1e-9 {
		t.Errorf("DelayMs = %f, want %f", st.DelayMs, wantDelay)
	}
	if math.Abs(st.PropDelayMs-wantProp) > 1e-9 {
		t.Errorf("PropDelayMs = %f, want %f", st.PropDelayMs, wantProp)
	}
	if math.Abs(st.LossProb-(1-surv)) > 1e-12 {
		t.Errorf("LossProb = %f, want %f", st.LossProb, 1-surv)
	}
	if st.PropDelayMs > st.DelayMs {
		t.Errorf("propagation %f exceeds total %f", st.PropDelayMs, st.DelayMs)
	}
}

func TestEvalLinksEmptyPath(t *testing.T) {
	_, n := testNetwork(t)
	st := n.EvalLinks(nil, 0)
	if st.DelayMs != 0 || st.LossProb != 0 || st.PropDelayMs != 0 {
		t.Errorf("empty path state should be zero, got %+v", st)
	}
}

func TestEvalHostPathIncludesAccess(t *testing.T) {
	top, n := testNetwork(t)
	tm := Time(7 * 3600)
	bare := n.EvalLinks(nil, tm)
	full, err := n.EvalHostPath(top.Hosts[0].ID, top.Hosts[1].ID, nil, tm)
	if err != nil {
		t.Fatal(err)
	}
	if full.DelayMs <= bare.DelayMs {
		t.Error("host path must add access-link delay")
	}
	minProp := top.Hosts[0].AccessDelayMs + top.Hosts[1].AccessDelayMs
	if math.Abs(full.PropDelayMs-minProp) > 1e-9 {
		t.Errorf("prop delay %f, want access sum %f", full.PropDelayMs, minProp)
	}
	if _, err := n.EvalHostPath(-1, top.Hosts[1].ID, nil, tm); err == nil {
		t.Error("unknown host should error")
	}
}

func TestSampleDelayDistribution(t *testing.T) {
	_, n := testNetwork(t)
	rng := rand.New(rand.NewSource(1))
	st := PathState{DelayMs: 40, PropDelayMs: 25}
	var sum float64
	const draws = 40000
	for i := 0; i < draws; i++ {
		d := n.SampleDelay(rng, st, 10)
		if d < st.PropDelayMs {
			t.Fatalf("sample %f below propagation floor %f", d, st.PropDelayMs)
		}
		sum += d
	}
	// Mean must match the expected delay plus the per-hop jitter means.
	want := st.DelayMs + 10*n.Config().ProcessingJitterMs
	got := sum / draws
	if math.Abs(got-want) > 0.5 {
		t.Errorf("mean sample %f, want ~%f", got, want)
	}
}

func TestSampleLossMatchesProbability(t *testing.T) {
	_, n := testNetwork(t)
	rng := rand.New(rand.NewSource(2))
	st := PathState{LossProb: 0.3}
	lost := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if n.SampleLoss(rng, st) {
			lost++
		}
	}
	frac := float64(lost) / trials
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("observed loss fraction %f, want ~0.3", frac)
	}
}

// noiseAt samples the value noise of one entity at one instant.
func noiseAt(seed, entity uint64, t Time, period float64) float64 {
	g := gridAt(t, period)
	return g.at(seed, entity)
}

func TestValueNoiseProperties(t *testing.T) {
	// Range check across many entities and times.
	f := func(entity uint16, tRaw uint32) bool {
		v := noiseAt(1, uint64(entity), Time(float64(tRaw)/7.0), 60)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Continuity: small time steps make small value steps.
	for i := 0; i < 1000; i++ {
		t0 := Time(float64(i) * 13.7)
		a := noiseAt(9, 42, t0, 600)
		b := noiseAt(9, 42, t0+1, 600)
		if math.Abs(a-b) > 0.02 {
			t.Fatalf("noise jumped %f -> %f over 1s with 600s period", a, b)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	if h := (Time(3600 * 5)).PSTHour(); h != 5 {
		t.Errorf("PSTHour = %f, want 5", h)
	}
	if (Time(0)).Weekend() {
		t.Error("epoch (Monday) should not be weekend")
	}
	if !(Time(5 * 86400)).Weekend() || !(Time(6*86400 + 100)).Weekend() {
		t.Error("Saturday/Sunday should be weekend")
	}
	if (Time(7 * 86400)).Weekend() {
		t.Error("second Monday should not be weekend")
	}
	// Local hour: longitude -75 (east coast) is 3 hours ahead of PST.
	if lh := (Time(0)).LocalHour(-75); math.Abs(lh-3) > 1e-9 {
		t.Errorf("LocalHour(-75) at midnight PST = %f, want 3", lh)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		t    Time
		want Bucket
	}{
		{Time(5 * 86400), BucketWeekend},
		{Time(3 * 3600), BucketNight},
		{Time(8 * 3600), BucketMorning},
		{Time(14 * 3600), BucketAfternoon},
		{Time(20 * 3600), BucketEvening},
		{Time(86400 + 11*3600), BucketMorning},
	}
	for _, c := range cases {
		if got := BucketOf(c.t); got != c.want {
			t.Errorf("BucketOf(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if len(Buckets()) != 5 {
		t.Error("expected 5 buckets")
	}
	for _, b := range Buckets() {
		if b.String() == "unknown" {
			t.Errorf("bucket %d has no label", b)
		}
	}
}

func TestExchangeLinksMoreCongested(t *testing.T) {
	top, n := testNetwork(t)
	exSum, exN, privSum, privN := 0.0, 0, 0.0, 0
	tm := Time(2*86400 + 13*3600)
	for _, l := range top.Links {
		if l.Rel == topology.Internal {
			continue
		}
		u := n.Utilization(l.ID, tm)
		if l.Exchange >= 0 {
			exSum += u
			exN++
		} else {
			privSum += u
			privN++
		}
	}
	if exN == 0 || privN == 0 {
		t.Skip("need both exchange and private inter-AS links")
	}
	if exSum/float64(exN) <= privSum/float64(privN) {
		t.Errorf("exchange links (%f) should be more utilized than private ones (%f)",
			exSum/float64(exN), privSum/float64(privN))
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := ConfigFor(topology.Era1995).Validate(); err != nil {
		t.Fatalf("1995 config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.PacketBytes = 0 },
		func(c *Config) { c.BufferPackets = -1 },
		func(c *Config) { c.BufferMs = -5 },
		func(c *Config) { c.QueueKnee = 1.2 },
		func(c *Config) { c.LossKnee = 0 },
		func(c *Config) { c.BaseLoss = 2 },
		func(c *Config) { c.CongestionLoss = -0.1 },
		func(c *Config) { c.FlapLoss = 1.5 },
		func(c *Config) { c.DriftPeriodSec = 0 },
		func(c *Config) { c.WeekendFactor = 2 },
		func(c *Config) { c.NightFloor = -1 },
		func(c *Config) { c.RouteWanderPeriodSec = 0 },
		func(c *Config) { c.RouteWanderPeriodSec = -100 },
		func(c *Config) { c.FlapWindowSec = -1 },
		func(c *Config) { c.FlapWindowSec = 3601 },
		func(c *Config) { c.FlapProbPerHour = -0.1 },
		func(c *Config) { c.FlapProbPerHour = 1.5 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Without route wander its period is never used.
	cfg := DefaultConfig()
	cfg.RouteWanderAmp, cfg.RouteWanderPeriodSec = 0, 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("wander disabled with zero period rejected: %v", err)
	}
}

func TestPropertyLinkStateBounds(t *testing.T) {
	top, n := testNetwork(t)
	f := func(linkRaw uint16, tRaw uint32) bool {
		lid := top.Links[int(linkRaw)%len(top.Links)].ID
		tm := Time(float64(tRaw % (14 * 86400)))
		u := n.Utilization(lid, tm)
		p := n.LossProb(lid, tm)
		q := n.QueueDelayMs(lid, tm)
		prop := n.LinkPropMs(lid, tm)
		base := top.Link(lid).PropDelayMs
		amp := n.Config().RouteWanderAmp
		return u >= 0.02 && u <= 0.99 &&
			p >= 0 && p <= 1 &&
			q >= 0 &&
			prop >= base*(1-amp)-1e-9 && prop <= base*(1+amp)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestRouteWanderDisabled(t *testing.T) {
	top, _ := testNetwork(t)
	cfg := DefaultConfig()
	cfg.RouteWanderAmp = 0
	n := New(top, cfg)
	l := top.Links[3]
	for _, tm := range []Time{0, 3600, 86400} {
		if got := n.LinkPropMs(l.ID, tm); got != l.PropDelayMs {
			t.Fatalf("wander disabled but prop %f != %f", got, l.PropDelayMs)
		}
	}
}
