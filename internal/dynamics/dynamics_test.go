package dynamics

import (
	"errors"
	"testing"

	"pathsel/internal/igp"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

func smallTopology(t *testing.T) (*topology.Topology, *igp.IGP) {
	t.Helper()
	cfg := topology.DefaultConfig(topology.Era1999)
	cfg.NumTier1 = 4
	cfg.NumTransit = 8
	cfg.NumStub = 30
	cfg.NumHosts = 8
	top, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return top, igp.New(top, igp.DefaultConfig())
}

func buildTimeline(t *testing.T, mutate func(*Config)) (*topology.Topology, *Timeline) {
	t.Helper()
	top, g := smallTopology(t)
	cfg := DefaultConfig()
	cfg.DurationSec = 2 * 86400
	cfg.FailuresPerAdjacencyPerWeek = 0.3 // enough events in two days
	if mutate != nil {
		mutate(&cfg)
	}
	tl, err := Build(top, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return top, tl
}

func TestTimelineCoversWindowContiguously(t *testing.T) {
	_, tl := buildTimeline(t, nil)
	eps := tl.Epochs()
	if len(eps) == 0 {
		t.Fatal("no epochs")
	}
	if eps[0].Start != 0 {
		t.Errorf("first epoch starts at %v", eps[0].Start)
	}
	if eps[len(eps)-1].End != netsim.Time(2*86400) {
		t.Errorf("last epoch ends at %v", eps[len(eps)-1].End)
	}
	for i := 1; i < len(eps); i++ {
		if eps[i].Start != eps[i-1].End {
			t.Fatalf("gap between epochs %d and %d", i-1, i)
		}
	}
}

func TestFailuresOccur(t *testing.T) {
	_, tl := buildTimeline(t, nil)
	withFailures := 0
	for _, ep := range tl.Epochs() {
		if len(ep.Failed) > 0 {
			withFailures++
		}
	}
	if withFailures == 0 {
		t.Error("no epoch has failures; raise the rate or check sampling")
	}
}

func TestEpochAt(t *testing.T) {
	_, tl := buildTimeline(t, nil)
	if ep := tl.EpochAt(100); ep == nil || ep.Start > 100 || ep.End <= 100 {
		t.Error("EpochAt(100) wrong")
	}
	if tl.EpochAt(-5) != nil {
		t.Error("time before window should have no epoch")
	}
	if tl.EpochAt(netsim.Time(3*86400)) != nil {
		t.Error("time after window should have no epoch")
	}
}

func TestPathAtAndRouteChanges(t *testing.T) {
	top, tl := buildTimeline(t, nil)
	src, dst := top.Hosts[0].ID, top.Hosts[1].ID
	if _, err := tl.PathAt(src, dst, 50); err != nil {
		t.Fatalf("PathAt: %v", err)
	}
	if _, err := tl.PathAt(src, dst, netsim.Time(5*86400)); !errors.Is(err, ErrOutsideTimeline) {
		t.Errorf("PathAt outside window: error %v, want ErrOutsideTimeline", err)
	}
	d, err := tl.WithConvergenceDelay(60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PathAt(src, dst, -1); !errors.Is(err, ErrOutsideTimeline) {
		t.Errorf("delayed PathAt outside window: error %v, want ErrOutsideTimeline", err)
	}
}

// TestRouteDominance reproduces Paxson's qualitative finding on the
// synthetic Internet: most pairs are dominated by a single route.
func TestRouteDominance(t *testing.T) {
	top, tl := buildTimeline(t, nil)
	dominated := 0
	pairs := 0
	for i := 0; i < len(top.Hosts); i++ {
		for j := i + 1; j < len(top.Hosts); j++ {
			st, err := tl.RouteDominance(top.Hosts[i].ID, top.Hosts[j].ID, 60)
			if err != nil {
				t.Fatal(err)
			}
			if st.Samples != 60 || st.DistinctRoutes < 1 {
				t.Fatalf("bad stats %+v", st)
			}
			if st.DominantFraction <= 0 || st.DominantFraction > 1 {
				t.Fatalf("dominant fraction %f", st.DominantFraction)
			}
			pairs++
			if st.DominantFraction >= 0.8 {
				dominated++
			}
		}
	}
	if frac := float64(dominated) / float64(pairs); frac < 0.5 {
		t.Errorf("only %.0f%% of pairs dominated by a single route; expected most", 100*frac)
	}
}

func TestNoFailuresSingleEpoch(t *testing.T) {
	top, tl := buildTimeline(t, func(c *Config) { c.FailuresPerAdjacencyPerWeek = 0 })
	if len(tl.Epochs()) != 1 {
		t.Fatalf("expected a single epoch, got %d", len(tl.Epochs()))
	}
	st, err := tl.RouteDominance(top.Hosts[0].ID, top.Hosts[2].ID, 20)
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctRoutes != 1 || st.DominantFraction != 1 {
		t.Errorf("static network should have one dominant route: %+v", st)
	}
}

func TestDeterministicTimeline(t *testing.T) {
	_, tl1 := buildTimeline(t, nil)
	_, tl2 := buildTimeline(t, nil)
	e1, e2 := tl1.Epochs(), tl2.Epochs()
	if len(e1) != len(e2) {
		t.Fatalf("epoch counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i].Start != e2[i].Start || e1[i].End != e2[i].End || len(e1[i].Failed) != len(e2[i].Failed) {
			t.Fatalf("epoch %d differs", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	top, g := smallTopology(t)
	bad := []func(*Config){
		func(c *Config) { c.FailuresPerAdjacencyPerWeek = -1 },
		func(c *Config) { c.MeanOutageSec = 0 },
		func(c *Config) { c.DurationSec = 0 },
		func(c *Config) { c.MaxEpochs = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := Build(top, g, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Exceeding MaxEpochs is an error, not a silent truncation.
	cfg := DefaultConfig()
	cfg.FailuresPerAdjacencyPerWeek = 50
	cfg.MaxEpochs = 3
	if _, err := Build(top, g, cfg); err == nil {
		t.Error("epoch explosion should be rejected")
	}
}

func TestFailedEpochAvoidsFailedAdjacency(t *testing.T) {
	top, tl := buildTimeline(t, func(c *Config) { c.FailuresPerAdjacencyPerWeek = 0.5 })
	checked := 0
	for _, ep := range tl.Epochs() {
		if len(ep.Failed) == 0 {
			continue
		}
		failed := map[[2]topology.ASN]bool{}
		for _, adj := range ep.Failed {
			failed[[2]topology.ASN{adj[0], adj[1]}] = true
			failed[[2]topology.ASN{adj[1], adj[0]}] = true
		}
		mid := ep.Start + (ep.End-ep.Start)/2
		for i := 0; i < 4; i++ {
			for j := 4; j < len(top.Hosts); j++ {
				p, err := tl.PathAt(top.Hosts[i].ID, top.Hosts[j].ID, mid)
				if err != nil {
					continue // pair may be disconnected during the outage
				}
				as := p.ASPath(top)
				for k := 0; k+1 < len(as); k++ {
					if failed[[2]topology.ASN{as[k], as[k+1]}] {
						t.Fatalf("path uses failed adjacency %d-%d", as[k], as[k+1])
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Skip("no reachable pairs during failure epochs")
	}
}
