package overlay

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pathsel/internal/bgp"
	"pathsel/internal/forward"
	"pathsel/internal/igp"
	"pathsel/internal/netsim"
	"pathsel/internal/obs"
	"pathsel/internal/topology"
)

// testWorld builds a small static world: topology, converged forwarding
// plane behind a cache, and the network model.
func testWorld(t testing.TB) (*topology.Topology, *forward.Cache, *netsim.Network) {
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
	g := igp.New(top, igp.DefaultConfig())
	table, err := bgp.Compute(top)
	if err != nil {
		t.Fatal(err)
	}
	return top, forward.NewCache(forward.New(top, g, table)), netsim.New(top, netsim.ConfigFor(topology.Era1999))
}

func testConditions(t testing.TB, nodes int) (Conditions, *forward.Cache) {
	t.Helper()
	top, cache, net := testWorld(t)
	if len(top.Hosts) < nodes {
		t.Fatalf("topology has %d hosts, need %d", len(top.Hosts), nodes)
	}
	ids := make([]topology.HostID, nodes)
	for i := range ids {
		ids[i] = top.Hosts[i].ID
	}
	start := netsim.Time(2 * 86400) // Wednesday midnight
	return Conditions{
		Paths: cache,
		Net:   net,
		Nodes: ids,
		Start: start,
		End:   start + 3600,
	}, cache
}

func testEvalConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupSec = 600
	cfg.ProbesPerSec = 1
	cfg.Concurrency = 1
	return cfg
}

func TestEvaluateValidatesInputs(t *testing.T) {
	cond, _ := testConditions(t, 4)
	ctx := context.Background()
	if _, err := Evaluate(ctx, Conditions{}, testEvalConfig()); err == nil {
		t.Error("expected error for empty conditions")
	}
	bad := cond
	bad.End = bad.Start
	if _, err := Evaluate(ctx, bad, testEvalConfig()); err == nil {
		t.Error("expected error for empty window")
	}
	badCfg := testEvalConfig()
	badCfg.ProbesPerSec = 0
	if _, err := Evaluate(ctx, cond, badCfg); err == nil {
		t.Error("expected config validation error")
	}
	few := cond
	few.Nodes = few.Nodes[:2]
	if _, err := Evaluate(ctx, few, testEvalConfig()); err == nil {
		t.Error("expected error for a 2-node overlay")
	}
}

func TestEvaluateCancellation(t *testing.T) {
	cond, _ := testConditions(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Evaluate(ctx, cond, testEvalConfig()); err == nil {
		t.Fatal("expected a cancellation error")
	}
}

// TestEvaluateDeterministicAcrossConcurrency is the package's
// determinism regression: a parallel run must be bit-identical to the
// sequential run at the same seed. Under -race it doubles as the proof
// that concurrent probe evaluation and switching decisions are
// data-race-free.
func TestEvaluateDeterministicAcrossConcurrency(t *testing.T) {
	cond, _ := testConditions(t, 6)
	var results []Result
	for _, conc := range []int{1, 4, 0} {
		cfg := testEvalConfig()
		cfg.Concurrency = conc
		res, err := Evaluate(context.Background(), cond, cfg)
		if err != nil {
			t.Fatalf("Concurrency=%d: %v", conc, err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("run %d differs from the sequential run:\nseq: %+v\npar: %+v", i, results[0], results[i])
		}
	}
	if results[0].ProbesSent == 0 || results[0].ScoredTicks == 0 {
		t.Fatalf("degenerate evaluation: %+v", results[0])
	}
}

func TestEvaluateOptimalBounds(t *testing.T) {
	cond, _ := testConditions(t, 6)
	res, err := Evaluate(context.Background(), cond, testEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.rttPoints() == 0 {
		t.Fatal("no jointly-usable points scored")
	}
	// The offline optimum picks per tick among direct and every relay,
	// so it bounds both other variants pointwise.
	if res.Optimal.MeanRTTMs > res.Overlay.MeanRTTMs+1e-9 {
		t.Errorf("optimal RTT %.3f above overlay %.3f", res.Optimal.MeanRTTMs, res.Overlay.MeanRTTMs)
	}
	if res.Optimal.MeanRTTMs > res.Default.MeanRTTMs+1e-9 {
		t.Errorf("optimal RTT %.3f above default %.3f", res.Optimal.MeanRTTMs, res.Default.MeanRTTMs)
	}
	if res.Optimal.Availability+1e-9 < res.Overlay.Availability ||
		res.Optimal.Availability+1e-9 < res.Default.Availability {
		t.Errorf("optimal availability %.4f below a bounded variant (overlay %.4f, default %.4f)",
			res.Optimal.Availability, res.Overlay.Availability, res.Default.Availability)
	}
	for i, rtt := range res.OptimalRTTs {
		if rtt > res.OverlayRTTs[i]+1e-9 || rtt > res.DefaultRTTs[i]+1e-9 {
			t.Fatalf("point %d: optimal %.3f above overlay %.3f or default %.3f",
				i, rtt, res.OverlayRTTs[i], res.DefaultRTTs[i])
		}
	}
	// Each scored tick adds at most one point per pair, and the clouds
	// are reserved for that bound before the run, so they never grow.
	bound := res.ScoredTicks * res.Pairs
	for _, pts := range [][]float64{res.OverlayRTTs, res.DefaultRTTs, res.OptimalRTTs} {
		if cap(pts) != bound {
			t.Errorf("RTT cloud of %d points has capacity %d, want the reserved %d", len(pts), cap(pts), bound)
		}
	}
}

// rttPoints returns how many jointly-usable points back the RTT means.
func (r Result) rttPoints() int { return len(r.OverlayRTTs) }

// outageProvider wraps a PathProvider, failing one pair (both
// directions) during a window — a deterministic injected outage.
type outageProvider struct {
	inner    PathProvider
	a, b     topology.HostID
	from, to netsim.Time
}

func (o *outageProvider) PathAt(src, dst topology.HostID, at netsim.Time) (forward.Path, error) {
	hit := (src == o.a && dst == o.b) || (src == o.b && dst == o.a)
	if hit && at >= o.from && at < o.to {
		return forward.Path{}, fmt.Errorf("injected outage %d<->%d", o.a, o.b)
	}
	return o.inner.PathAt(src, dst, at)
}

func TestEvaluateFailoverOnInjectedOutage(t *testing.T) {
	cond, cache := testConditions(t, 6)
	cond.Paths = &outageProvider{
		inner: cache,
		a:     cond.Nodes[0],
		b:     cond.Nodes[1],
		from:  cond.Start + 600,
		to:    cond.Start + 1800,
	}
	cfg := testEvalConfig()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	res, err := EvaluateWithMetrics(context.Background(), cond, cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutagesDetected == 0 {
		t.Fatal("injected outage never detected")
	}
	if res.Switches == 0 {
		t.Fatal("no route switches despite a 20-minute outage")
	}
	if len(res.Reactions) == 0 {
		t.Fatal("no failover reactions recorded")
	}
	for _, sec := range res.Reactions {
		if sec <= 0 || sec > 1200 {
			t.Fatalf("implausible reaction time %.1f s", sec)
		}
	}
	// The overlay must ride out part of the outage that the default
	// path cannot: strictly better availability.
	if res.Overlay.Availability <= res.Default.Availability {
		t.Errorf("overlay availability %.4f not above default %.4f under an injected outage",
			res.Overlay.Availability, res.Default.Availability)
	}
	if got := m.ProbesSent.Value(); got != int64(res.ProbesSent) {
		t.Errorf("metrics probes %d != result %d", got, res.ProbesSent)
	}
	if got := m.Switches.Value(); got != int64(res.Switches) {
		t.Errorf("metrics switches %d != result %d", got, res.Switches)
	}
	if got := m.Detection.Count(); got != int64(len(res.Reactions)) {
		t.Errorf("metrics reactions %d != result %d", got, len(res.Reactions))
	}
}
