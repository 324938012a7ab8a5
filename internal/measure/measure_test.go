package measure

import (
	"testing"

	"pathsel/internal/bgp"
	"pathsel/internal/dataset"
	"pathsel/internal/forward"
	"pathsel/internal/igp"
	"pathsel/internal/netsim"
	"pathsel/internal/probe"
	"pathsel/internal/topology"
)

type fixture struct {
	top *topology.Topology
	fwd *forward.Forwarder
	net *netsim.Network
	prb *probe.Prober
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cfg := topology.DefaultConfig(topology.Era1999)
	cfg.NumHosts = 12
	top, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	g := igp.New(top, igp.DefaultConfig())
	table, err := bgp.Compute(top)
	if err != nil {
		t.Fatalf("bgp.Compute: %v", err)
	}
	fwd := forward.New(top, g, table)
	net := netsim.New(top, netsim.DefaultConfig())
	return &fixture{top: top, fwd: fwd, net: net, prb: probe.New(top, fwd, net, probe.DefaultConfig())}
}

func hostIDs(top *topology.Topology) []topology.HostID {
	ids := make([]topology.HostID, len(top.Hosts))
	for i, h := range top.Hosts {
		ids[i] = h.ID
	}
	return ids
}

func baseSpec(fx *fixture) Spec {
	return Spec{
		Name:            "test",
		Hosts:           hostIDs(fx.top),
		Method:          MethodTraceroute,
		Scheduler:       ExponentialPairs,
		MeanIntervalSec: 120,
		DurationSec:     2 * 86400,
		Seed:            7,
	}
}

func TestExponentialPairsCampaign(t *testing.T) {
	fx := newFixture(t)
	spec := baseSpec(fx)
	ds, err := Run(fx.top, fx.prb, spec)
	if err != nil {
		t.Fatal(err)
	}
	c := ds.Characteristics()
	// Expect roughly duration/mean measurements minus failures/self-pairs.
	expected := spec.DurationSec / spec.MeanIntervalSec
	if float64(c.Measurements) < expected*0.7 || float64(c.Measurements) > expected*1.1 {
		t.Errorf("measurements = %d, want ~%.0f", c.Measurements, expected)
	}
	if c.Hosts != len(spec.Hosts) {
		t.Errorf("hosts = %d, want %d", c.Hosts, len(spec.Hosts))
	}
	if c.PercentCovered < 50 {
		t.Errorf("coverage %.1f%% unexpectedly low", c.PercentCovered)
	}
	// Every recorded path must have data and an AS path.
	for _, k := range ds.PairKeys() {
		p := ds.Paths[k]
		if p.Measurements == 0 {
			t.Fatalf("path %v recorded with zero measurements", k)
		}
		if len(p.Echo.Lost) == 0 {
			t.Fatalf("path %v has no loss observations", k)
		}
	}
}

func TestPerServerUniformCampaign(t *testing.T) {
	fx := newFixture(t)
	spec := baseSpec(fx)
	spec.Scheduler = PerServerUniform
	spec.MeanIntervalSec = 900
	spec.DurationSec = 5 * 86400
	spec.RateLimit = FilterTargets
	spec.MirrorMissing = true
	ds, err := Run(fx.top, fx.prb, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Rate-limited hosts may appear as sources but never as targets
	// (before mirroring, which copies reverse data).
	rl := map[topology.HostID]bool{}
	for _, h := range fx.top.Hosts {
		if h.RateLimitICMP {
			rl[h.ID] = true
		}
	}
	if len(rl) == 0 {
		t.Skip("no rate-limited hosts in fixture")
	}
	// After mirroring, paths toward rate limiters should exist but carry
	// no AS path (they were never traced directly).
	foundMirrored := false
	for _, k := range ds.PairKeys() {
		if rl[k.Dst] {
			if p := ds.Paths[k]; p.ASPath == nil && len(p.Echo.RTTMs) > 0 {
				foundMirrored = true
			}
		}
	}
	if !foundMirrored {
		t.Error("expected mirrored paths toward rate-limited hosts")
	}
}

func TestEpisodesCampaign(t *testing.T) {
	fx := newFixture(t)
	spec := baseSpec(fx)
	spec.Scheduler = Episodes
	spec.MeanIntervalSec = 3600
	spec.DurationSec = 86400
	spec.RateLimit = FilterHosts
	spec.Hosts = hostIDs(fx.top)[:8]
	ds, err := Run(fx.top, fx.prb, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Episodes) == 0 {
		t.Fatal("no episodes collected")
	}
	nHosts := len(ds.Hosts)
	maxPairs := nHosts * (nHosts - 1)
	for _, ep := range ds.Episodes {
		if len(ep.RTTMs) > maxPairs {
			t.Fatalf("episode has %d entries, max %d", len(ep.RTTMs), maxPairs)
		}
		// Most pairs should be present (only failures/losses missing).
		if len(ep.RTTMs) < maxPairs/2 {
			t.Errorf("episode at %v sparse: %d of %d pairs", ep.At, len(ep.RTTMs), maxPairs)
		}
	}
}

func TestFilterHostsRemovesRateLimiters(t *testing.T) {
	fx := newFixture(t)
	spec := baseSpec(fx)
	spec.RateLimit = FilterHosts
	ds, err := Run(fx.top, fx.prb, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range ds.Hosts {
		if fx.top.Host(h).RateLimitICMP {
			t.Errorf("rate-limited host %d still in dataset", h)
		}
	}
	for _, k := range ds.PairKeys() {
		if fx.top.Host(k.Src).RateLimitICMP || fx.top.Host(k.Dst).RateLimitICMP {
			t.Errorf("path %v touches rate limiter", k)
		}
	}
}

func TestMinMeasurementsFilter(t *testing.T) {
	fx := newFixture(t)
	spec := baseSpec(fx)
	spec.DurationSec = 6 * 3600 // short: many sparse paths
	spec.MinMeasurements = dataset.MinMeasurementsPerPath
	ds, err := Run(fx.top, fx.prb, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ds.PairKeys() {
		if ds.Paths[k].Measurements < dataset.MinMeasurementsPerPath {
			t.Errorf("path %v kept with %d measurements", k, ds.Paths[k].Measurements)
		}
	}
}

func TestDeterministicCampaign(t *testing.T) {
	fx := newFixture(t)
	spec := baseSpec(fx)
	spec.DurationSec = 86400
	a, err := Run(fx.top, fx.prb, spec)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh prober with the same seed must reproduce the campaign.
	fx2 := newFixture(t)
	b, err := Run(fx2.top, fx2.prb, spec)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := a.PairKeys(), b.PairKeys()
	if len(ka) != len(kb) {
		t.Fatalf("path counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key %d differs", i)
		}
		sa, _ := a.MeanRTT(ka[i])
		sb, _ := b.MeanRTT(kb[i])
		if sa != sb {
			t.Fatalf("summaries differ for %v: %+v vs %+v", ka[i], sa, sb)
		}
	}
}

func TestTransferCampaign(t *testing.T) {
	fx := newFixture(t)
	spec := baseSpec(fx)
	spec.Method = MethodTransfer
	spec.DurationSec = 86400
	ds, err := Run(fx.top, fx.prb, spec)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range ds.PairKeys() {
		if len(ds.Paths[k].Transfers) > 0 {
			found = true
			if _, _, ok := ds.TransferMeans(k); !ok {
				t.Fatalf("no transfer means for %v", k)
			}
		}
	}
	if !found {
		t.Error("no transfers recorded")
	}
}

func TestSpecValidation(t *testing.T) {
	fx := newFixture(t)
	bad := []func(*Spec){
		func(s *Spec) { s.Hosts = s.Hosts[:1] },
		func(s *Spec) { s.MeanIntervalSec = 0 },
		func(s *Spec) { s.DurationSec = -1 },
		func(s *Spec) { s.Method = MethodTransfer; s.Scheduler = Episodes },
	}
	for i, mutate := range bad {
		spec := baseSpec(fx)
		mutate(&spec)
		if _, err := Run(fx.top, fx.prb, spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestStringers(t *testing.T) {
	if MethodTraceroute.String() != "traceroute" || MethodTransfer.String() != "tcpanaly" {
		t.Error("method strings wrong")
	}
	if PerServerUniform.String() != "per-server-uniform" || Episodes.String() != "episodes" {
		t.Error("scheduler strings wrong")
	}
	if KeepAll.String() != "keep-all" || FilterHosts.String() != "filter-hosts" {
		t.Error("policy strings wrong")
	}
}
