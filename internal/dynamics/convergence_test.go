package dynamics

import (
	"errors"
	"slices"
	"testing"

	"pathsel/internal/bgp"
	"pathsel/internal/igp"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// findBlackholedPair locates an epoch with new failures and a host pair
// whose previous-epoch route crossed one of the newly failed links.
func findBlackholedPair(t *testing.T, top *topology.Topology, d *DelayedTimeline) (epoch int, src, dst topology.HostID) {
	t.Helper()
	for i := 1; i < len(d.tl.epochs); i++ {
		if d.newLinks[i] == nil {
			continue
		}
		prev := d.tl.epochs[i-1]
		for _, hs := range top.Hosts {
			for _, hd := range top.Hosts {
				if hs.ID == hd.ID {
					continue
				}
				p, err := prev.cache.PathAt(hs.ID, hd.ID, prev.Start)
				if err == nil && pathUsesLink(p, d.newLinks[i]) {
					return i, hs.ID, hd.ID
				}
			}
		}
	}
	t.Skip("no sampled failure crossed a host-pair route at this seed")
	return 0, 0, 0
}

func TestAdjacencyRestrictionLimitsFailures(t *testing.T) {
	top, tl := buildTimeline(t, func(cfg *Config) {
		cfg.FailuresPerAdjacencyPerWeek = 3 // hot enough that unrestricted sampling would hit many adjacencies
	})
	// Restrict to the first adjacency that failed in the unrestricted
	// run, and rebuild: every failure must now be on that adjacency.
	var target bgp.AdjacencyKey
	found := false
	for _, ep := range tl.Epochs() {
		if len(ep.Failed) > 0 {
			target = ep.Failed[0]
			found = true
			break
		}
	}
	if !found {
		t.Skip("no failures sampled at this seed")
	}
	g := igp.New(top, igp.DefaultConfig())
	cfg := DefaultConfig()
	cfg.DurationSec = 2 * 86400
	cfg.FailuresPerAdjacencyPerWeek = 3
	cfg.Adjacencies = []bgp.AdjacencyKey{target, target} // duplicates are deduplicated
	rtl, err := Build(top, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawFailure := false
	for _, ep := range rtl.Epochs() {
		for _, adj := range ep.Failed {
			sawFailure = true
			if adj != target {
				t.Fatalf("failure on %v, restricted to %v", adj, target)
			}
		}
	}
	if !sawFailure {
		t.Fatal("restricted timeline sampled no failures at a hot rate")
	}
}

func TestWithConvergenceDelayRejectsNegative(t *testing.T) {
	_, tl := buildTimeline(t, nil)
	if _, err := tl.WithConvergenceDelay(-1); err == nil {
		t.Fatal("expected error for a negative delay")
	}
}

func TestZeroDelayMatchesTimeline(t *testing.T) {
	top, tl := buildTimeline(t, nil)
	d, err := tl.WithConvergenceDelay(0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := top.Hosts
	for _, ep := range tl.Epochs() {
		at := ep.Start + (ep.End-ep.Start)/2
		for i := 0; i < 4; i++ {
			src, dst := hosts[i].ID, hosts[(i+3)%len(hosts)].ID
			p1, err1 := tl.PathAt(src, dst, at)
			p2, err2 := d.PathAt(src, dst, at)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("error mismatch at %v: %v vs %v", at, err1, err2)
			}
			if err1 == nil && !slices.Equal(p1.Routers, p2.Routers) {
				t.Fatalf("path mismatch at %v", at)
			}
		}
	}
}

func TestDelayBlackholesBrokenRoutes(t *testing.T) {
	top, tl := buildTimeline(t, func(cfg *Config) {
		cfg.FailuresPerAdjacencyPerWeek = 1.5
		cfg.MaxEpochs = 400
	})
	const delay = 240.0
	d, err := tl.WithConvergenceDelay(delay)
	if err != nil {
		t.Fatal(err)
	}
	i, src, dst := findBlackholedPair(t, top, d)
	ep := tl.Epochs()[i]

	// During the delay window the pair is blackholed...
	for _, off := range []float64{0, delay / 2, delay - 1} {
		at := ep.Start + netsim.Time(off)
		if at >= ep.End {
			break
		}
		if _, err := d.PathAt(src, dst, at); !errors.Is(err, ErrBlackholed) {
			t.Fatalf("%v after epoch start: error %v, want ErrBlackholed", netsim.Time(off), err)
		}
	}
	// ...and afterwards (or at any time) the plain timeline's converged
	// answer applies.
	at := ep.Start + netsim.Time(delay)
	if at < ep.End {
		p1, err1 := tl.PathAt(src, dst, at)
		p2, err2 := d.PathAt(src, dst, at)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("post-delay error mismatch: %v vs %v", err1, err2)
		}
		if err1 == nil && !slices.Equal(p1.Routers, p2.Routers) {
			t.Fatal("post-delay path differs from the converged timeline")
		}
	}

	// A pair whose previous route avoided the failed links converges
	// immediately.
	for _, hs := range top.Hosts {
		for _, hd := range top.Hosts {
			if hs.ID == hd.ID {
				continue
			}
			p, err := tl.Epochs()[i-1].cache.PathAt(hs.ID, hd.ID, ep.Start)
			if err != nil || pathUsesLink(p, d.newLinks[i]) {
				continue
			}
			pd, errD := d.PathAt(hs.ID, hd.ID, ep.Start)
			pt, errT := tl.PathAt(hs.ID, hd.ID, ep.Start)
			if (errD == nil) != (errT == nil) {
				t.Fatalf("unaffected pair %d->%d error mismatch: %v vs %v", hs.ID, hd.ID, errD, errT)
			}
			if errD == nil && !slices.Equal(pd.Routers, pt.Routers) {
				t.Fatalf("unaffected pair %d->%d rerouted during the delay window", hs.ID, hd.ID)
			}
			return
		}
	}
}
