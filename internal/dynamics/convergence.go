package dynamics

import (
	"errors"
	"fmt"

	"pathsel/internal/bgp"
	"pathsel/internal/forward"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// ErrBlackholed is DelayedTimeline.PathAt's error for a pair whose
// route is blackholed while its withdrawal propagates.
var ErrBlackholed = errors.New("dynamics: route blackholed during reconvergence")

// DelayedTimeline wraps a Timeline with a BGP convergence delay: when an
// epoch begins because sessions failed, pairs whose previous-epoch route
// crossed a newly failed adjacency see no route at all for the first
// DelaySec of the epoch — the withdrawal has not propagated and packets
// are still being blackholed, as in Labovitz's delayed-convergence
// measurements. Once DelaySec elapses the epoch's converged routes
// apply. Restorations take effect immediately (a recovered route only
// gets better), and pairs whose old route did not cross a failed
// adjacency are unaffected.
//
// Like Timeline, a DelayedTimeline is not safe for concurrent use.
type DelayedTimeline struct {
	tl       *Timeline
	DelaySec float64
	// newLinks[i] holds the links of adjacencies that failed at the
	// start of epoch i (present in epoch i's failure set but not epoch
	// i-1's).
	newLinks []map[topology.LinkID]bool
}

// WithConvergenceDelay derives a DelayedTimeline from tl. A delay of 0
// behaves exactly like the underlying timeline.
func (tl *Timeline) WithConvergenceDelay(delaySec float64) (*DelayedTimeline, error) {
	if delaySec < 0 {
		return nil, fmt.Errorf("dynamics: negative convergence delay %f", delaySec)
	}
	d := &DelayedTimeline{tl: tl, DelaySec: delaySec, newLinks: make([]map[topology.LinkID]bool, len(tl.epochs))}
	for i, ep := range tl.epochs {
		var prev []bgp.AdjacencyKey
		if i > 0 {
			prev = tl.epochs[i-1].Failed
		}
		prevSet := map[bgp.AdjacencyKey]bool{}
		for _, adj := range prev {
			prevSet[adj] = true
		}
		links := map[topology.LinkID]bool{}
		for _, adj := range ep.Failed {
			if prevSet[adj] {
				continue
			}
			for _, lid := range tl.top.InterASLinks(adj[0], adj[1]) {
				links[lid] = true
			}
			for _, lid := range tl.top.InterASLinks(adj[1], adj[0]) {
				links[lid] = true
			}
		}
		if len(links) > 0 {
			d.newLinks[i] = links
		}
	}
	return d, nil
}

// Timeline returns the underlying epoch timeline.
func (d *DelayedTimeline) Timeline() *Timeline { return d.tl }

// epochIndex returns the index of the epoch containing t, or -1.
func (d *DelayedTimeline) epochIndex(t netsim.Time) int {
	ep := d.tl.EpochAt(t)
	if ep == nil {
		return -1
	}
	// Epochs are contiguous and sorted; locate by start time.
	lo, hi := 0, len(d.tl.epochs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.tl.epochs[mid].End > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// PathAt returns the forwarding path between two hosts at time t,
// holding back reconvergence for routes broken by the current epoch's
// new failures.
func (d *DelayedTimeline) PathAt(src, dst topology.HostID, t netsim.Time) (forward.Path, error) {
	i := d.epochIndex(t)
	if i < 0 {
		return forward.Path{}, ErrOutsideTimeline
	}
	ep := d.tl.epochs[i]
	if d.DelaySec > 0 && i > 0 && d.newLinks[i] != nil && float64(t-ep.Start) < d.DelaySec {
		prevPath, err := d.tl.epochs[i-1].cache.PathAt(src, dst, ep.Start)
		// A pair that was already unreachable cannot be blackholed
		// further; only routes that crossed a newly failed adjacency
		// stall.
		if err == nil && pathUsesLink(prevPath, d.newLinks[i]) {
			return forward.Path{}, ErrBlackholed
		}
	}
	return ep.cache.PathAt(src, dst, t)
}

// pathUsesLink reports whether the path crosses any of the links.
func pathUsesLink(p forward.Path, links map[topology.LinkID]bool) bool {
	for _, lid := range p.Links {
		if links[lid] {
			return true
		}
	}
	return false
}
