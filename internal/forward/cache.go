package forward

import (
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// Cache memoizes host-pair paths of a static Forwarder, and adapts it to
// the time-indexed PathAt interface the prober uses (a converged network
// has the same path at every instant, so the time argument is ignored).
// A pair without a route is memoized too: a static forwarder fails the
// same way every time. Not safe for concurrent use, matching the
// single-threaded measurement campaigns.
type Cache struct {
	fwd   *Forwarder
	paths map[[2]topology.HostID]cachedPath
}

type cachedPath struct {
	p   Path
	err error
}

// NewCache wraps a Forwarder.
func NewCache(f *Forwarder) *Cache {
	return &Cache{fwd: f, paths: map[[2]topology.HostID]cachedPath{}}
}

// PathAt returns the (memoized) forwarding path between two hosts, or
// the (memoized) error of a pair without one.
func (c *Cache) PathAt(src, dst topology.HostID, _ netsim.Time) (Path, error) {
	key := [2]topology.HostID{src, dst}
	if e, ok := c.paths[key]; ok {
		return e.p, e.err
	}
	p, err := c.fwd.HostPath(src, dst)
	c.paths[key] = cachedPath{p: p, err: err}
	return p, err
}
