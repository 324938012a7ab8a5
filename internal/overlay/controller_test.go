package overlay

import (
	"context"
	"slices"
	"sort"
	"testing"

	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// testNodes returns n distinct host IDs; the controller never
// dereferences them, so synthetic IDs suffice for control-plane tests.
func testNodes(n int) []topology.HostID {
	ids := make([]topology.HostID, n)
	for i := range ids {
		ids[i] = topology.HostID(i + 1)
	}
	return ids
}

func testController(t *testing.T, n int, mutate func(*Config)) *Controller {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Concurrency = 1
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewController(testNodes(n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSchedulerBudgetAndCoverage(t *testing.T) {
	// 0.3 probes/s at 10 s ticks = 3 probes per tick over 10 edges:
	// round-robin must cover the whole mesh in 4 ticks and respect the
	// budget exactly.
	c := testController(t, 5, func(cfg *Config) {
		cfg.ProbesPerSec = 0.3
	})
	seen := map[int]int{}
	total := 0
	for tick := 0; tick < 4; tick++ {
		plan := c.PlanProbes()
		if len(plan) > 3 {
			t.Fatalf("tick %d: %d probes exceed the budget of 3", tick, len(plan))
		}
		total += len(plan)
		for _, e := range plan {
			seen[e]++
		}
	}
	if total != 12 {
		t.Fatalf("4 ticks issued %d probes, want 12", total)
	}
	if len(seen) != 10 {
		t.Fatalf("round-robin covered %d of 10 edges in 4 ticks", len(seen))
	}
	if c.ProbesSent() != total {
		t.Fatalf("ProbesSent = %d, want %d", c.ProbesSent(), total)
	}
}

func TestSchedulerFractionalBudgetCarries(t *testing.T) {
	// 0.05 probes/s at 10 s ticks = one probe every other tick.
	c := testController(t, 5, func(cfg *Config) {
		cfg.ProbesPerSec = 0.05
	})
	counts := make([]int, 6)
	for tick := range counts {
		counts[tick] = len(c.PlanProbes())
	}
	want := []int{0, 1, 0, 1, 0, 1}
	for tick, n := range counts {
		if n != want[tick] {
			t.Fatalf("tick %d issued %d probes, want %d (got %v)", tick, n, want[tick], counts)
		}
	}
}

func TestProbeSeqAdvancesPerEdge(t *testing.T) {
	c := testController(t, 3, nil)
	if c.ProbeSeq(0) != 0 || c.ProbeSeq(0) != 1 || c.ProbeSeq(1) != 0 {
		t.Fatal("per-edge probe sequences must advance independently")
	}
}

// warm feeds one good sample to every mesh edge at time at, with the
// given per-edge RTTs.
func warm(c *Controller, at netsim.Time, rtts map[int]float64) {
	plan := make([]int, c.mesh.edges())
	samples := make([]Sample, c.mesh.edges())
	for e := range plan {
		plan[e] = e
		samples[e] = Sample{RTTMs: rtts[e]}
	}
	c.Ingest(at, plan, samples)
}

func TestDecideSwitchesToFasterRelay(t *testing.T) {
	c := testController(t, 3, nil)
	m := c.mesh
	p := m.edge(0, 1)
	// Direct 0-1 is slow; the relay via node 2 sums to 20 ms.
	warm(c, 0, map[int]float64{p: 80, m.edge(0, 2): 10, m.edge(2, 1): 10})
	ctx := context.Background()
	switched, err := c.Decide(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if switched == 0 || c.Route(p) != 2 {
		t.Fatalf("pair %d routed via %d (switched=%d), want relay 2", p, c.Route(p), switched)
	}
	if c.Switches() != switched {
		t.Fatalf("Switches() = %d, want %d", c.Switches(), switched)
	}
}

func TestDecideHysteresisHoldsNearTies(t *testing.T) {
	c := testController(t, 3, func(cfg *Config) {
		cfg.HysteresisFrac = 0.10
		cfg.HysteresisAbsMs = 2
	})
	m := c.mesh
	p := m.edge(0, 1)
	// Relay saves 4 ms on a 50 ms incumbent: under the 10% margin.
	warm(c, 0, map[int]float64{p: 50, m.edge(0, 2): 23, m.edge(2, 1): 23})
	if _, err := c.Decide(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if c.Route(p) != Direct {
		t.Fatalf("pair switched on a within-hysteresis margin (route %d)", c.Route(p))
	}
}

func TestOutageForcesFailoverAndBurst(t *testing.T) {
	c := testController(t, 3, func(cfg *Config) {
		cfg.OutageLosses = 2
		cfg.ProbesPerSec = 0.001 // background budget effectively zero
	})
	m := c.mesh
	p := m.edge(0, 1)
	warm(c, 0, map[int]float64{p: 20, m.edge(0, 2): 30, m.edge(2, 1): 30})
	if _, err := c.Decide(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if c.Route(p) != Direct {
		t.Fatalf("setup: expected direct route, got %d", c.Route(p))
	}

	// Two consecutive losses on the direct edge declare it down.
	c.Ingest(10, []int{p}, []Sample{{Lost: true}})
	c.Ingest(20, []int{p}, []Sample{{Lost: true}})
	if c.OutagesDetected() != 1 {
		t.Fatalf("OutagesDetected = %d, want 1", c.OutagesDetected())
	}
	// The burst reprobe plan covers the affected pair's candidate edges
	// despite the negligible background budget.
	plan := c.PlanProbes()
	want := map[int]bool{p: true, m.edge(0, 2): true, m.edge(2, 1): true}
	got := map[int]bool{}
	for _, e := range plan {
		got[e] = true
	}
	for e := range want {
		if !got[e] {
			t.Fatalf("burst plan %v missing edge %d", plan, e)
		}
	}
	// The failover decision bypasses hysteresis: the relay wins even
	// though it is slower than the dead edge's last estimate.
	if _, err := c.Decide(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	if c.Route(p) != 2 {
		t.Fatalf("after outage pair routed via %d, want relay 2", c.Route(p))
	}
}

func TestDecideHoldsWhenNothingEligible(t *testing.T) {
	c := testController(t, 3, nil)
	// No estimates at all: every route scores +Inf, so routes hold.
	if _, err := c.Decide(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < c.Pairs(); p++ {
		if c.Route(p) != Direct {
			t.Fatalf("pair %d moved with no data", p)
		}
	}
}

func TestMaxCandidatesRestrictsRelays(t *testing.T) {
	c := testController(t, 5, func(cfg *Config) {
		cfg.MaxCandidates = 1
	})
	m := c.mesh
	p := m.edge(0, 1)
	rtts := map[int]float64{p: 100}
	// Relay 3 is best, relay 2 second, relay 4 worst.
	rtts[m.edge(0, 3)], rtts[m.edge(3, 1)] = 5, 5
	rtts[m.edge(0, 2)], rtts[m.edge(2, 1)] = 20, 20
	rtts[m.edge(0, 4)], rtts[m.edge(4, 1)] = 40, 40
	warm(c, 0, rtts)
	cands := c.candidateRelays(p, 0, &relayScratch{})
	if len(cands) != 1 || cands[0] != 3 {
		t.Fatalf("candidateRelays = %v, want [3]", cands)
	}
}

// refCandidateRelays is the candidate selection over freshly allocated
// slices and sort.SliceStable, the reference the scratch-based
// candidateRelays must match.
func refCandidateRelays(c *Controller, p int, now netsim.Time) []int {
	ij := c.mesh.pairs[p]
	var relays []int
	for r := 0; r < c.mesh.n; r++ {
		if r != ij[0] && r != ij[1] {
			relays = append(relays, r)
		}
	}
	if c.cfg.MaxCandidates <= 0 || len(relays) <= c.cfg.MaxCandidates {
		return relays
	}
	scores := make([]float64, len(relays))
	order := make([]int, len(relays))
	for k, r := range relays {
		scores[k] = c.routeScore(p, r, now)
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	kept := append([]int(nil), order[:c.cfg.MaxCandidates]...)
	sort.Ints(kept)
	out := make([]int, len(kept))
	for k, idx := range kept {
		out[k] = relays[idx]
	}
	return out
}

// TestCandidateRelaysMatchesReference checks the selection, ties and
// unprobed (+Inf) legs included, with one scratch reused across pairs.
func TestCandidateRelaysMatchesReference(t *testing.T) {
	for _, maxCand := range []int{0, 1, 3, 7, 20} {
		c := testController(t, 30, func(cfg *Config) { cfg.MaxCandidates = maxCand })
		var plan []int
		var samples []Sample
		for e := 0; e < c.mesh.edges(); e++ {
			if e%7 == 3 {
				continue // never probed: routes over it score +Inf
			}
			plan = append(plan, e)
			samples = append(samples, Sample{RTTMs: float64(5 * (e % 4))}) // many ties
		}
		c.Ingest(0, plan, samples)
		var s relayScratch
		for p := 0; p < c.mesh.edges(); p++ {
			got, want := c.candidateRelays(p, 0, &s), refCandidateRelays(c, p, 0)
			if !slices.Equal(got, want) {
				t.Fatalf("MaxCandidates=%d pair %d: candidateRelays = %v, want %v", maxCand, p, got, want)
			}
		}
	}
}
