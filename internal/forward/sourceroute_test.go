package forward

import (
	"testing"

	"pathsel/internal/bgp"
	"pathsel/internal/igp"
	"pathsel/internal/topology"
)

func TestLooseSourcePathVisitsRelays(t *testing.T) {
	fx := newFixture(t, topology.Era1999)
	src, relay, dst := fx.top.Hosts[0], fx.top.Hosts[4], fx.top.Hosts[8]
	p, err := fx.fwd.LooseSourcePath(src.ID, []topology.HostID{relay.ID}, dst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Routers[0] != src.Attach || p.Routers[len(p.Routers)-1] != dst.Attach {
		t.Fatal("endpoints wrong")
	}
	found := false
	for _, r := range p.Routers {
		if r == relay.Attach {
			found = true
		}
	}
	if !found {
		t.Fatal("source-routed path skips the relay's attachment router")
	}
	// Continuity.
	if len(p.Routers) != len(p.Links)+1 {
		t.Fatalf("router/link count mismatch")
	}
	for k, lid := range p.Links {
		l := fx.top.Link(lid)
		if l.From != p.Routers[k] || l.To != p.Routers[k+1] {
			t.Fatalf("discontinuity at %d", k)
		}
	}
}

func TestLooseSourcePathNoRelaysEqualsDefault(t *testing.T) {
	fx := newFixture(t, topology.Era1999)
	src, dst := fx.top.Hosts[1], fx.top.Hosts[2]
	direct, err := fx.fwd.HostPath(src.ID, dst.ID)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := fx.fwd.LooseSourcePath(src.ID, nil, dst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Links) != len(sr.Links) {
		t.Fatalf("lengths differ: %d vs %d", len(direct.Links), len(sr.Links))
	}
	for i := range direct.Links {
		if direct.Links[i] != sr.Links[i] {
			t.Fatalf("link %d differs", i)
		}
	}
}

func TestLooseSourcePathMultipleRelays(t *testing.T) {
	fx := newFixture(t, topology.Era1999)
	hosts := fx.top.Hosts
	p, err := fx.fwd.LooseSourcePath(hosts[0].ID, []topology.HostID{hosts[3].ID, hosts[6].ID}, hosts[9].ID)
	if err != nil {
		t.Fatal(err)
	}
	// Both relays appear in order.
	i3, i6 := -1, -1
	for i, r := range p.Routers {
		if r == hosts[3].Attach && i3 == -1 {
			i3 = i
		}
		if r == hosts[6].Attach && i6 == -1 {
			i6 = i
		}
	}
	if i3 == -1 || i6 == -1 || i3 > i6 {
		t.Fatalf("relays not visited in order: %d, %d", i3, i6)
	}
}

func TestLooseSourcePathErrors(t *testing.T) {
	fx := newFixture(t, topology.Era1999)
	h := fx.top.Hosts[0].ID
	if _, err := fx.fwd.LooseSourcePath(-1, nil, h); err == nil {
		t.Error("unknown src should error")
	}
	if _, err := fx.fwd.LooseSourcePath(h, []topology.HostID{-5}, fx.top.Hosts[1].ID); err == nil {
		t.Error("unknown relay should error")
	}
}

// TestSourceRouteAtMostHostComposition verifies the paper's
// conservativity argument structurally: the source-routed path through a
// relay never has more propagation delay than the composition of the two
// host paths (which traverses the relay's access segment twice).
func TestSourceRouteAtMostHostComposition(t *testing.T) {
	fx := newFixture(t, topology.Era1999)
	hosts := fx.top.Hosts
	checked := 0
	for i := 0; i < 4; i++ {
		for j := 5; j < 9; j++ {
			for r := 9; r < len(hosts); r++ {
				src, dst, relay := hosts[i], hosts[j], hosts[r]
				sr, err := fx.fwd.LooseSourcePath(src.ID, []topology.HostID{relay.ID}, dst.ID)
				if err != nil {
					t.Fatal(err)
				}
				leg1, err := fx.fwd.HostPath(src.ID, relay.ID)
				if err != nil {
					t.Fatal(err)
				}
				leg2, err := fx.fwd.HostPath(relay.ID, dst.ID)
				if err != nil {
					t.Fatal(err)
				}
				composed := leg1.PropDelayMs(fx.top) + leg2.PropDelayMs(fx.top) +
					2*relay.AccessDelayMs // host composition pays the relay's access twice
				if got := sr.PropDelayMs(fx.top); got > composed+1e-9 {
					t.Fatalf("source route %f ms exceeds host composition %f ms", got, composed)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no triples checked")
	}
}

func TestColdPotatoDiffers(t *testing.T) {
	top, err := topology.Generate(topology.DefaultConfig(topology.Era1999))
	if err != nil {
		t.Fatal(err)
	}
	g := igp.New(top, igp.DefaultConfig())
	table, err := bgp.Compute(top)
	if err != nil {
		t.Fatal(err)
	}
	hot := New(top, g, table)
	cold := NewWithEgress(top, g, table, ColdPotato)
	differ := 0
	pairs := 0
	for i := 0; i < len(top.Hosts); i++ {
		for j := 0; j < len(top.Hosts); j++ {
			if i == j {
				continue
			}
			ph, err := hot.HostPath(top.Hosts[i].ID, top.Hosts[j].ID)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := cold.HostPath(top.Hosts[i].ID, top.Hosts[j].ID)
			if err != nil {
				t.Fatal(err)
			}
			pairs++
			if !samePath(ph, pc) {
				differ++
			}
			// Both policies must follow the same AS-level route.
			ah, ac := ph.ASPath(top), pc.ASPath(top)
			if len(ah) != len(ac) {
				t.Fatalf("AS paths differ in length for pair %d-%d", i, j)
			}
			for k := range ah {
				if ah[k] != ac[k] {
					t.Fatalf("AS paths differ for pair %d-%d", i, j)
				}
			}
		}
	}
	if differ == 0 {
		t.Error("cold potato never changed any router-level path")
	}
	t.Logf("%d of %d pairs differ between hot and cold potato", differ, pairs)
}

func samePath(a, b Path) bool {
	if len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}

func TestEgressPolicyString(t *testing.T) {
	if HotPotato.String() != "hot-potato" || ColdPotato.String() != "cold-potato" {
		t.Error("policy strings wrong")
	}
	if EgressPolicy(9).String() != "policy(9)" {
		t.Error("unknown policy string wrong")
	}
}

func TestExclusionsAvoidLinks(t *testing.T) {
	top, err := topology.Generate(topology.DefaultConfig(topology.Era1999))
	if err != nil {
		t.Fatal(err)
	}
	g := igp.New(top, igp.DefaultConfig())
	table, err := bgp.Compute(top)
	if err != nil {
		t.Fatal(err)
	}
	base := New(top, g, table)
	src, dst := top.Hosts[0].ID, top.Hosts[5].ID
	p, err := base.HostPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Exclude the first inter-AS link of the default path; if the AS
	// pair has another link, the excluded forwarder must avoid it.
	var target topology.LinkID = -1
	for _, lid := range p.Links {
		l := top.Link(lid)
		if l.Rel != topology.Internal {
			a, bAS := top.Router(l.From).AS, top.Router(l.To).AS
			if len(top.InterASLinks(a, bAS)) > 1 {
				target = lid
				break
			}
		}
	}
	if target == -1 {
		t.Skip("default path has no multi-link AS crossing to exclude")
	}
	excluded := map[topology.LinkID]bool{target: true}
	fwd2 := NewWithExclusions(top, g, table, excluded)
	p2, err := fwd2.HostPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, lid := range p2.Links {
		if lid == target {
			t.Fatal("excluded link still used")
		}
	}
}

func TestCacheMemoizes(t *testing.T) {
	fx := newFixture(t, topology.Era1999)
	c := NewCache(fx.fwd)
	src, dst := fx.top.Hosts[0].ID, fx.top.Hosts[1].ID
	p1, err := c.PathAt(src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.PathAt(src, dst, 999999) // time is irrelevant for a static network
	if err != nil {
		t.Fatal(err)
	}
	if !samePath(p1, p2) {
		t.Error("cache returned different paths for the same pair")
	}
	direct, err := fx.fwd.HostPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !samePath(p1, direct) {
		t.Error("cached path differs from direct computation")
	}
	first, err := c.PathAt(-1, dst, 0)
	if err == nil {
		t.Error("unknown host should propagate the error")
	}
	// Errors are memoized as errors, not as successes: a repeated bad
	// lookup returns the same error without recomputing it.
	again, err2 := c.PathAt(-1, dst, 0)
	if err2 == nil {
		t.Error("repeated bad lookup should still error")
	}
	if err2 != err || !samePath(first, again) {
		t.Errorf("repeated bad lookup returned %v, want the memoized %v", err2, err)
	}
	if allocs := testing.AllocsPerRun(50, func() { _, _ = c.PathAt(-1, dst, 0) }); allocs > 0 {
		t.Errorf("memoized bad lookup allocates %v times, want 0", allocs)
	}
}

func TestExclusionOfOnlyLinkBreaksForwarding(t *testing.T) {
	top, err := topology.Generate(topology.DefaultConfig(topology.Era1999))
	if err != nil {
		t.Fatal(err)
	}
	g := igp.New(top, igp.DefaultConfig())
	table, err := bgp.Compute(top)
	if err != nil {
		t.Fatal(err)
	}
	base := New(top, g, table)
	src, dst := top.Hosts[0].ID, top.Hosts[5].ID
	p, err := base.HostPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Exclude every link of the first AS crossing: with the BGP route
	// unchanged, forwarding must fail rather than sneak through.
	excluded := map[topology.LinkID]bool{}
	for _, lid := range p.Links {
		l := top.Link(lid)
		if l.Rel != topology.Internal {
			a, bAS := top.Router(l.From).AS, top.Router(l.To).AS
			for _, id := range top.InterASLinks(a, bAS) {
				excluded[id] = true
			}
			break
		}
	}
	if len(excluded) == 0 {
		t.Skip("path never crosses an AS boundary")
	}
	fwd2 := NewWithExclusions(top, g, table, excluded)
	if _, err := fwd2.HostPath(src, dst); err == nil {
		t.Error("forwarding over a fully excluded adjacency should fail")
	}
}
