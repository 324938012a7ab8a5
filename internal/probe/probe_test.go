package probe

import (
	"math"
	"slices"
	"testing"

	"pathsel/internal/bgp"
	"pathsel/internal/forward"
	"pathsel/internal/igp"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

type fixture struct {
	top *topology.Topology
	fwd *forward.Forwarder
	net *netsim.Network
	prb *Prober
}

func newFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	top, err := topology.Generate(topology.DefaultConfig(topology.Era1999))
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
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return &fixture{top: top, fwd: fwd, net: net, prb: New(top, fwd, net, cfg)}
}

func pickHost(t *testing.T, fx *fixture, rateLimited bool, exclude topology.HostID) *topology.Host {
	t.Helper()
	for _, h := range fx.top.Hosts {
		if h.RateLimitICMP == rateLimited && h.ID != exclude {
			return h
		}
	}
	t.Skipf("no host with RateLimitICMP=%v", rateLimited)
	return nil
}

func TestTracerouteBasics(t *testing.T) {
	fx := newFixture(t, func(c *Config) { c.ContactFailProb = 0 })
	src := pickHost(t, fx, false, -1)
	dst := pickHost(t, fx, false, src.ID)
	res, err := fx.prb.Traceroute(src.ID, dst.ID, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("unexpected failure with ContactFailProb=0")
	}
	if len(res.Samples) != SamplesPerTraceroute {
		t.Fatalf("got %d samples, want %d", len(res.Samples), SamplesPerTraceroute)
	}
	if len(res.HopRouters) < 2 {
		t.Fatalf("expected hop list, got %v", res.HopRouters)
	}
	if res.HopRouters[0] != src.Attach || res.HopRouters[len(res.HopRouters)-1] != dst.Attach {
		t.Fatal("hop list endpoints wrong")
	}
	if len(res.ASPath) < 2 {
		t.Fatalf("AS path too short: %v", res.ASPath)
	}
	if res.ASPath[0] != src.AS || res.ASPath[len(res.ASPath)-1] != dst.AS {
		t.Fatalf("AS path endpoints wrong: %v", res.ASPath)
	}
	for _, s := range res.Samples {
		if !s.Lost && s.RTTMs <= 0 {
			t.Fatalf("non-lost sample with RTT %f", s.RTTMs)
		}
	}
}

func TestRTTExceedsPropagationBound(t *testing.T) {
	fx := newFixture(t, func(c *Config) { c.ContactFailProb = 0 })
	src, dst := fx.top.Hosts[0], fx.top.Hosts[1]
	fwdPath, err := fx.prb.path(src.ID, dst.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	revPath, err := fx.prb.path(dst.ID, src.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := fwdPath.PropDelayMs(fx.top) + revPath.PropDelayMs(fx.top) +
		src.AccessDelayMs + dst.AccessDelayMs // one-way access each direction is symmetric here
	for i := 0; i < 30; i++ {
		res, err := fx.prb.Ping(src.ID, dst.ID, netsim.Time(i*1000))
		if err != nil {
			t.Fatal(err)
		}
		s := res.Samples[0]
		if s.Lost {
			continue
		}
		if s.RTTMs < bound {
			t.Fatalf("RTT %f below physical bound %f", s.RTTMs, bound)
		}
	}
}

func TestRateLimitedTargetsLoseTrailingSamples(t *testing.T) {
	fx := newFixture(t, func(c *Config) { c.ContactFailProb = 0 })
	src := pickHost(t, fx, false, -1)
	rl := pickHost(t, fx, true, src.ID)
	firstLost, trailingLost, trailingTotal := 0, 0, 0
	const n = 300
	for i := 0; i < n; i++ {
		res, err := fx.prb.Traceroute(src.ID, rl.ID, netsim.Time(i*600))
		if err != nil {
			t.Fatal(err)
		}
		if res.Samples[0].Lost {
			firstLost++
		}
		for _, s := range res.Samples[1:] {
			trailingTotal++
			if s.Lost {
				trailingLost++
			}
		}
	}
	firstRate := float64(firstLost) / n
	trailingRate := float64(trailingLost) / float64(trailingTotal)
	if trailingRate < firstRate+0.3 {
		t.Errorf("rate limiting should inflate trailing-sample loss: first %.3f, trailing %.3f",
			firstRate, trailingRate)
	}
}

func TestContactFailures(t *testing.T) {
	fx := newFixture(t, func(c *Config) { c.ContactFailProb = 0.5 })
	src, dst := fx.top.Hosts[0], fx.top.Hosts[1]
	failed := 0
	const n = 400
	for i := 0; i < n; i++ {
		res, err := fx.prb.Traceroute(src.ID, dst.ID, netsim.Time(i*100))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			failed++
			if len(res.Samples) != 0 {
				t.Fatal("failed result should have no samples")
			}
		}
	}
	frac := float64(failed) / n
	if math.Abs(frac-0.5) > 0.1 {
		t.Errorf("failure fraction %f, want ~0.5", frac)
	}
}

func TestPing(t *testing.T) {
	fx := newFixture(t, func(c *Config) { c.ContactFailProb = 0 })
	src, dst := fx.top.Hosts[2], fx.top.Hosts[3]
	res, err := fx.prb.Ping(src.ID, dst.ID, 7200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 1 {
		t.Fatalf("ping should produce 1 sample, got %d", len(res.Samples))
	}
	if len(res.HopRouters) != 0 {
		t.Error("ping should not reveal hops")
	}
}

func TestTransfer(t *testing.T) {
	fx := newFixture(t, func(c *Config) { c.ContactFailProb = 0 })
	src, dst := fx.top.Hosts[4], fx.top.Hosts[5]
	res, err := fx.prb.Transfer(src.ID, dst.ID, 3*86400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("unexpected failure")
	}
	if res.MeanRTTMs <= 0 {
		t.Errorf("MeanRTT %f, want > 0", res.MeanRTTMs)
	}
	if res.LossRate < 0 || res.LossRate > 1 {
		t.Errorf("LossRate %f out of range", res.LossRate)
	}
	if res.Packets <= 0 {
		t.Errorf("Packets %d, want > 0", res.Packets)
	}
}

func TestTransferPacketFloor(t *testing.T) {
	for _, n := range []int{0, 4, 5} {
		fx := newFixture(t, func(c *Config) { c.ContactFailProb = 0; c.TransferPackets = n })
		res, err := fx.prb.Transfer(fx.top.Hosts[4].ID, fx.top.Hosts[5].ID, 3*86400)
		if n < 5 {
			if err == nil {
				t.Errorf("TransferPackets %d: want error, got LossRate %v", n, res.LossRate)
			}
			continue
		}
		if err != nil {
			t.Fatalf("TransferPackets %d: %v", n, err)
		}
		if math.IsNaN(res.LossRate) || res.Packets != n {
			t.Errorf("TransferPackets %d: LossRate %v over %d packets", n, res.LossRate, res.Packets)
		}
	}
}

func TestUnknownHosts(t *testing.T) {
	fx := newFixture(t, nil)
	if _, err := fx.prb.Traceroute(-1, fx.top.Hosts[0].ID, 0); err == nil {
		t.Error("Traceroute with unknown src should error")
	}
	if _, err := fx.prb.Ping(fx.top.Hosts[0].ID, -2, 0); err == nil {
		t.Error("Ping with unknown dst should error")
	}
	if _, err := fx.prb.Transfer(topology.HostID(999), fx.top.Hosts[0].ID, 0); err == nil {
		t.Error("Transfer with unknown src should error")
	}
}

func TestLostCount(t *testing.T) {
	r := Result{Samples: []Sample{{Lost: true}, {RTTMs: 10}, {Lost: true}}}
	if r.LostCount() != 2 {
		t.Errorf("LostCount = %d, want 2", r.LostCount())
	}
}

func TestPeakHoursSlower(t *testing.T) {
	// Mean RTT at peak hours should exceed mean RTT at night for the
	// same pair — the diurnal congestion that drives the paper's
	// Figure 9 analysis.
	fx := newFixture(t, func(c *Config) { c.ContactFailProb = 0 })
	src, dst := fx.top.Hosts[0], fx.top.Hosts[6]
	meanAt := func(hour int) float64 {
		sum, n := 0.0, 0
		for day := 0; day < 5; day++ {
			for rep := 0; rep < 10; rep++ {
				at := netsim.Time(day*86400 + hour*3600 + rep*300)
				res, err := fx.prb.Ping(src.ID, dst.ID, at)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Samples[0].Lost {
					sum += res.Samples[0].RTTMs
					n++
				}
			}
		}
		if n == 0 {
			t.Fatal("all samples lost")
		}
		return sum / float64(n)
	}
	peak := meanAt(13)
	night := meanAt(3)
	if peak <= night {
		t.Errorf("peak RTT %f should exceed night RTT %f", peak, night)
	}
}

func TestTracerouteAllocsWithWarmPathCache(t *testing.T) {
	fx := newFixture(t, func(c *Config) { c.ContactFailProb = 0 })
	src, dst := fx.top.Hosts[0].ID, fx.top.Hosts[1].ID
	if _, err := fx.prb.Traceroute(src, dst, 0); err != nil {
		t.Fatal(err)
	}
	at := netsim.Time(0)
	allocs := testing.AllocsPerRun(200, func() {
		at += 61
		if _, err := fx.prb.Traceroute(src, dst, at); err != nil {
			t.Fatal(err)
		}
	})
	// The one allocation is the result's sample slice.
	if allocs > 1 {
		t.Errorf("Traceroute allocates %v times per call with a warm path cache, want at most 1", allocs)
	}
}

// TestAppendTraceroute: with a reused buffer, a traceroute allocates
// nothing and draws the same samples as Traceroute; the buffer's prefix
// is kept.
func TestAppendTraceroute(t *testing.T) {
	fx := newFixture(t, nil)
	other := New(fx.top, fx.fwd, fx.net, DefaultConfig())
	hosts := fx.top.Hosts
	var buf [1 + SamplesPerTraceroute]Sample
	buf[0] = Sample{RTTMs: -1}
	for i := 0; i < 200; i++ {
		src, dst := hosts[i%len(hosts)].ID, hosts[(i*7+1)%len(hosts)].ID
		if src == dst {
			continue
		}
		at := netsim.Time(i * 97)
		want, err := fx.prb.Traceroute(src, dst, at)
		if err != nil {
			t.Fatal(err)
		}
		got, err := other.AppendTraceroute(buf[:1], src, dst, at)
		if err != nil {
			t.Fatal(err)
		}
		if got.Failed != want.Failed {
			t.Fatalf("traceroute %d: failed %v, want %v", i, got.Failed, want.Failed)
		}
		if want.Failed {
			continue
		}
		if len(got.Samples) != 1+len(want.Samples) || &got.Samples[0] != &buf[0] || got.Samples[0].RTTMs != -1 {
			t.Fatalf("traceroute %d: samples %v do not extend the buffer", i, got.Samples)
		}
		if !slices.Equal(got.Samples[1:], want.Samples) {
			t.Fatalf("traceroute %d: samples %v, want %v", i, got.Samples[1:], want.Samples)
		}
	}

	src, dst := hosts[0].ID, hosts[1].ID
	at := netsim.Time(0)
	allocs := testing.AllocsPerRun(200, func() {
		at += 61
		if _, err := other.AppendTraceroute(buf[:0], src, dst, at); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("AppendTraceroute allocates %v times per call with room in the buffer, want 0", allocs)
	}
}

// switchingPaths is a time-varying PathProvider: before switchAt the
// pair (src, dst) takes path a, afterwards path b; every other pair
// takes its converged path.
type switchingPaths struct {
	*forward.Cache
	src, dst topology.HostID
	a, b     forward.Path
	switchAt netsim.Time
}

func (p *switchingPaths) PathAt(src, dst topology.HostID, at netsim.Time) (forward.Path, error) {
	if src == p.src && dst == p.dst {
		if at < p.switchAt {
			return p.a, nil
		}
		return p.b, nil
	}
	return p.Cache.PathAt(src, dst, at)
}

// TestTracerouteASPathFollowsPathChanges checks the per-pair AS path
// memo against a provider whose path for a pair changes over time, as
// a dynamics timeline's does across epochs.
func TestTracerouteASPathFollowsPathChanges(t *testing.T) {
	fx := newFixture(t, func(c *Config) { c.ContactFailProb = 0 })
	src, dst := fx.top.Hosts[0], fx.top.Hosts[1]
	direct, err := fx.fwd.HostPath(src.ID, dst.ID)
	if err != nil {
		t.Fatal(err)
	}
	var detour forward.Path
	for _, via := range fx.top.Hosts[2:] {
		p, err := fx.fwd.LooseSourcePath(src.ID, []topology.HostID{via.ID}, dst.ID)
		if err == nil && !slices.Equal(p.ASPath(fx.top), direct.ASPath(fx.top)) {
			detour = p
			break
		}
	}
	if detour.Routers == nil {
		t.Skip("no relay gives a different AS path")
	}
	paths := &switchingPaths{Cache: forward.NewCache(fx.fwd), src: src.ID, dst: dst.ID,
		a: direct, b: detour, switchAt: 1000}
	prb := NewWithProvider(fx.top, paths, fx.net, fx.prb.cfg)
	for _, at := range []netsim.Time{0, 10, 2000, 3000, 20, 4000} {
		want := direct
		if at >= paths.switchAt {
			want = detour
		}
		res, err := prb.Traceroute(src.ID, dst.ID, at)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.ASPath, want.ASPath(fx.top)) {
			t.Fatalf("at %v: AS path %v, want %v", at, res.ASPath, want.ASPath(fx.top))
		}
	}
}
