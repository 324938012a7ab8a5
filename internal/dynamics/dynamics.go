// Package dynamics models routing dynamics: BGP session failures and
// repairs over simulated time, with full reconvergence of the routing
// system in every inter-failure epoch. It supports the Paxson-style
// route-dominance analysis the paper cites ("Internet paths are
// generally dominated by a single route, but some networks do experience
// significant route fluctuation") and lets experiments measure how route
// changes interact with the alternate-path phenomenon.
//
// Failures are sampled per AS adjacency as a Poisson process with
// exponentially distributed outage durations, deterministically from the
// seed. Each maximal interval with a constant failure set is an Epoch
// holding its own converged BGP table and forwarder.
package dynamics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"pathsel/internal/bgp"
	"pathsel/internal/forward"
	"pathsel/internal/igp"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// Config controls failure sampling.
type Config struct {
	Seed int64
	// FailuresPerAdjacencyPerWeek is the expected number of session
	// failures per AS adjacency per simulated week.
	FailuresPerAdjacencyPerWeek float64
	// MeanOutageSec is the mean outage duration.
	MeanOutageSec float64
	// StartSec and DurationSec bound the timeline.
	StartSec, DurationSec float64
	// MaxEpochs bounds the number of reconvergence computations; Build
	// fails if the sampled failures would exceed it.
	MaxEpochs int
	// Adjacencies, when non-empty, restricts failure sampling to the
	// listed AS adjacencies (deduplicated; unknown adjacencies are
	// harmless no-ops). Experiments use it to inject failures onto the
	// paths a host set actually depends on instead of spreading them
	// over the whole topology. Empty means every adjacency may fail.
	Adjacencies []bgp.AdjacencyKey
}

// DefaultConfig returns a modest failure regime: most adjacencies never
// fail during a one-week window, a few fail once — consistent with the
// paper-era observation that most instability came from a minority of
// networks.
func DefaultConfig() Config {
	return Config{
		Seed:                        1,
		FailuresPerAdjacencyPerWeek: 0.05,
		MeanOutageSec:               1800,
		StartSec:                    0,
		DurationSec:                 7 * 86400,
		MaxEpochs:                   200,
	}
}

// Validate reports problems with the configuration.
func (c Config) Validate() error {
	switch {
	case c.FailuresPerAdjacencyPerWeek < 0:
		return fmt.Errorf("dynamics: negative failure rate")
	case c.MeanOutageSec <= 0:
		return fmt.Errorf("dynamics: MeanOutageSec must be positive")
	case c.DurationSec <= 0:
		return fmt.Errorf("dynamics: DurationSec must be positive")
	case c.MaxEpochs < 1:
		return fmt.Errorf("dynamics: MaxEpochs must be at least 1")
	}
	return nil
}

// Epoch is a maximal interval with a constant set of failed adjacencies
// and the routing state converged for that set.
type Epoch struct {
	Start, End netsim.Time
	// Failed lists the adjacencies down during the epoch.
	Failed []bgp.AdjacencyKey
	// Fwd forwards packets with the epoch's converged routes, excluding
	// all links of failed adjacencies.
	Fwd *forward.Forwarder
	// cache memoizes host-pair paths; epochs with the same failure set
	// share one cache.
	cache *forward.Cache
}

// Timeline is a sequence of contiguous epochs covering the window.
type Timeline struct {
	top    *topology.Topology
	epochs []*Epoch
}

// outage is one sampled failure interval of one adjacency.
type outage struct {
	adj        bgp.AdjacencyKey
	start, end float64
}

// adjacencies lists every undirected AS adjacency in deterministic order.
func adjacencies(top *topology.Topology) []bgp.AdjacencyKey {
	set := map[bgp.AdjacencyKey]bool{}
	for _, as := range top.ASList {
		for _, n := range top.NeighborASes(as.ASN) {
			set[bgp.MakeAdjacencyKey(as.ASN, n)] = true
		}
	}
	out := make([]bgp.AdjacencyKey, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Build samples the failure schedule and converges routing for every
// epoch.
func Build(top *topology.Topology, g *igp.IGP, cfg Config) (*Timeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	end := cfg.StartSec + cfg.DurationSec
	ratePerSec := cfg.FailuresPerAdjacencyPerWeek / (7 * 86400)

	adjList := adjacencies(top)
	if len(cfg.Adjacencies) > 0 {
		set := map[bgp.AdjacencyKey]bool{}
		for _, adj := range cfg.Adjacencies {
			set[adj] = true
		}
		adjList = adjList[:0]
		for adj := range set {
			adjList = append(adjList, adj)
		}
		sort.Slice(adjList, func(i, j int) bool {
			if adjList[i][0] != adjList[j][0] {
				return adjList[i][0] < adjList[j][0]
			}
			return adjList[i][1] < adjList[j][1]
		})
	}

	var outages []outage
	for _, adj := range adjList {
		t := cfg.StartSec
		for {
			if ratePerSec <= 0 {
				break
			}
			t += rng.ExpFloat64() / ratePerSec
			if t >= end {
				break
			}
			o := outage{adj: adj, start: t, end: t + rng.ExpFloat64()*cfg.MeanOutageSec}
			if o.end > end {
				o.end = end
			}
			outages = append(outages, o)
			t = o.end
		}
	}

	// Breakpoints where the failure set changes.
	breaks := map[float64]bool{cfg.StartSec: true, end: true}
	for _, o := range outages {
		breaks[o.start] = true
		breaks[o.end] = true
	}
	points := make([]float64, 0, len(breaks))
	for p := range breaks {
		points = append(points, p)
	}
	sort.Float64s(points)
	if len(points)-1 > cfg.MaxEpochs {
		return nil, fmt.Errorf("dynamics: %d epochs exceed MaxEpochs %d; lower the failure rate",
			len(points)-1, cfg.MaxEpochs)
	}

	tl := &Timeline{top: top}
	// Cache converged state per failure-set signature: failures are
	// sparse, so the all-up state recurs between outages.
	type state struct {
		fwd   *forward.Forwarder
		cache *forward.Cache
	}
	cache := map[string]state{}
	for i := 0; i+1 < len(points); i++ {
		lo, hi := points[i], points[i+1]
		mid := (lo + hi) / 2
		failedSet := map[bgp.AdjacencyKey]bool{}
		var failed []bgp.AdjacencyKey
		for _, o := range outages {
			if o.start <= mid && mid < o.end && !failedSet[o.adj] {
				failedSet[o.adj] = true
				failed = append(failed, o.adj)
			}
		}
		sort.Slice(failed, func(a, b int) bool {
			if failed[a][0] != failed[b][0] {
				return failed[a][0] < failed[b][0]
			}
			return failed[a][1] < failed[b][1]
		})
		sig := fmt.Sprint(failed)
		st, ok := cache[sig]
		if !ok {
			table, err := bgp.ComputeExcluding(top, failedSet)
			if err != nil {
				return nil, fmt.Errorf("dynamics: reconvergence with %d failures: %w", len(failed), err)
			}
			excludedLinks := map[topology.LinkID]bool{}
			for _, adj := range failed {
				for _, lid := range top.InterASLinks(adj[0], adj[1]) {
					excludedLinks[lid] = true
				}
				for _, lid := range top.InterASLinks(adj[1], adj[0]) {
					excludedLinks[lid] = true
				}
			}
			fwd := forward.NewWithExclusions(top, g, table, excludedLinks)
			st = state{fwd: fwd, cache: forward.NewCache(fwd)}
			cache[sig] = st
		}
		tl.epochs = append(tl.epochs, &Epoch{
			Start:  netsim.Time(lo),
			End:    netsim.Time(hi),
			Failed: failed,
			Fwd:    st.fwd,
			cache:  st.cache,
		})
	}
	return tl, nil
}

// Epochs returns the timeline's epochs in order.
func (tl *Timeline) Epochs() []*Epoch { return tl.epochs }

// EpochAt returns the epoch containing t, or nil if t is outside the
// window.
func (tl *Timeline) EpochAt(t netsim.Time) *Epoch {
	i := sort.Search(len(tl.epochs), func(i int) bool { return tl.epochs[i].End > t })
	if i == len(tl.epochs) || tl.epochs[i].Start > t {
		return nil
	}
	return tl.epochs[i]
}

// ErrOutsideTimeline is the PathAt error for a time no epoch covers.
var ErrOutsideTimeline = errors.New("dynamics: time outside the timeline")

// PathAt returns the forwarding path between two hosts at time t, under
// the routes converged for that instant's failure set.
func (tl *Timeline) PathAt(src, dst topology.HostID, t netsim.Time) (forward.Path, error) {
	ep := tl.EpochAt(t)
	if ep == nil {
		return forward.Path{}, ErrOutsideTimeline
	}
	return ep.cache.PathAt(src, dst, t)
}

// RouteStats summarizes the routes one host pair experienced across the
// timeline, Paxson-style.
type RouteStats struct {
	// Samples is the number of time samples taken.
	Samples int
	// DistinctRoutes counts the different router-level paths seen
	// (unreachability counts as its own "route" when it occurs).
	DistinctRoutes int
	// DominantFraction is the share of samples on the most common route.
	DominantFraction float64
	// UnreachableFraction is the share of samples with no route.
	UnreachableFraction float64
}

// RouteDominance samples the pair's forwarding path at regular intervals
// across the timeline and reports route-prevalence statistics.
func (tl *Timeline) RouteDominance(src, dst topology.HostID, samples int) (RouteStats, error) {
	if len(tl.epochs) == 0 {
		return RouteStats{}, fmt.Errorf("dynamics: empty timeline")
	}
	if samples < 1 {
		return RouteStats{}, fmt.Errorf("dynamics: need at least 1 sample")
	}
	start := tl.epochs[0].Start
	end := tl.epochs[len(tl.epochs)-1].End
	// Routes are keyed by their router IDs, 8 bytes each, built in one
	// reused buffer; a map lookup by string(key) does not copy it, so
	// only a route's first sighting allocates. "unreachable" is 11
	// bytes long, so no route produces it.
	route := map[string]int{} // key -> index into counts
	var counts []int
	var key []byte
	unreachable := 0
	for i := 0; i < samples; i++ {
		t := start + netsim.Time(float64(end-start)*(float64(i)+0.5)/float64(samples))
		key = key[:0]
		if p, err := tl.PathAt(src, dst, t); err != nil {
			unreachable++
			key = append(key, "unreachable"...)
		} else {
			for _, r := range p.Routers {
				key = binary.LittleEndian.AppendUint64(key, uint64(r))
			}
		}
		c, ok := route[string(key)]
		if !ok {
			c = len(counts)
			route[string(key)] = c
			counts = append(counts, 0)
		}
		counts[c]++
	}
	st := RouteStats{Samples: samples, DistinctRoutes: len(counts)}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	st.DominantFraction = float64(max) / float64(samples)
	st.UnreachableFraction = float64(unreachable) / float64(samples)
	return st, nil
}
