package overlay

import (
	"context"
	"math"
	"sort"

	"pathsel/internal/fanout"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// Controller is the online overlay control plane: probe scheduling,
// estimate ingestion, outage detection and switching decisions. It
// holds no reference to the network — the harness (or a real transport)
// executes the probes the controller plans and feeds the samples back —
// so the control logic is a pure, deterministic state machine over the
// simulated clock.
//
// The three phases of a control tick must be called in order
// (PlanProbes, Ingest, Decide) and never concurrently with each other;
// Decide itself fans the per-pair policy evaluation out over the
// configured worker count and is bit-identical at any setting.
type Controller struct {
	cfg   Config
	nodes []topology.HostID
	mesh  *mesh
	est   *estimator

	routes []int // per pair: Direct or relay node index

	// Scheduler state: a round-robin cursor with fractional budget
	// carry, plus the urgent set the outage detector fills.
	cursor    int
	budgetAcc float64
	urgent    []bool
	probeSeq  []uint64 // per-edge probe counter (keys the sample RNG)

	// forced marks pairs whose current route crossed an edge that just
	// went down: their next decision bypasses hysteresis.
	forced []bool

	probesSent int
	switches   int
	outages    int

	// scratch holds one candidate-selection buffer per Decide worker.
	scratch []relayScratch

	metrics *Metrics
}

// NewController builds a controller over the given overlay nodes (at
// least 3, so one-hop relays exist).
func NewController(nodes []topology.HostID, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := newMesh(len(nodes))
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:      cfg,
		nodes:    append([]topology.HostID(nil), nodes...),
		mesh:     m,
		est:      newEstimator(cfg, m.edges()),
		routes:   make([]int, m.edges()),
		urgent:   make([]bool, m.edges()),
		probeSeq: make([]uint64, m.edges()),
		forced:   make([]bool, m.edges()),
	}
	for p := range c.routes {
		c.routes[p] = Direct
	}
	return c, nil
}

// WithMetrics attaches an observability sink; nil is allowed and is the
// default (no metrics).
func (c *Controller) WithMetrics(m *Metrics) *Controller {
	c.metrics = m
	return c
}

// Nodes returns the overlay node set.
func (c *Controller) Nodes() []topology.HostID { return c.nodes }

// Pairs returns the number of overlay pairs (= mesh edges).
func (c *Controller) Pairs() int { return c.mesh.edges() }

// Route returns the current route of pair p: Direct or the relay's
// node index.
func (c *Controller) Route(p int) int { return c.routes[p] }

// ProbesSent and Switches report lifetime totals; OutagesDetected
// counts edge down-transitions.
func (c *Controller) ProbesSent() int      { return c.probesSent }
func (c *Controller) Switches() int        { return c.switches }
func (c *Controller) OutagesDetected() int { return c.outages }

// PlanProbes returns the mesh edges to probe this tick: every urgent
// edge (outage-burst reprobes, which may exceed the budget), then
// round-robin edges up to the tick's share of ProbesPerSec. Each edge
// appears at most once. The returned slice is valid until the next
// PlanProbes call.
func (c *Controller) PlanProbes() []int {
	m := c.mesh.edges()
	var plan []int
	taken := make([]bool, m)
	for e := 0; e < m; e++ {
		if c.urgent[e] {
			plan = append(plan, e)
			taken[e] = true
			c.urgent[e] = false
		}
	}
	c.budgetAcc += c.cfg.ProbesPerSec * c.cfg.TickSec
	n := int(c.budgetAcc)
	if n > m {
		n = m
	}
	for k := 0; k < n; k++ {
		e := c.cursor
		c.cursor = (c.cursor + 1) % m
		if taken[e] {
			continue
		}
		plan = append(plan, e)
		taken[e] = true
		c.budgetAcc--
	}
	c.probesSent += len(plan)
	if c.metrics != nil {
		c.metrics.probes(len(plan))
	}
	return plan
}

// ProbeSeq returns, and advances, the sequence number of the next probe
// on an edge. The harness keys each probe's random draw on (seed, edge,
// seq), so samples are deterministic no matter which worker executes
// them.
func (c *Controller) ProbeSeq(edge int) uint64 {
	s := c.probeSeq[edge]
	c.probeSeq[edge]++
	return s
}

// Ingest folds the tick's probe samples into the estimator, in plan
// order, and runs the outage detector: an edge crossing the
// consecutive-loss threshold marks every route using it for forced
// re-decision and schedules burst reprobes of the affected pairs'
// candidate edges for the next tick.
func (c *Controller) Ingest(at netsim.Time, plan []int, samples []Sample) {
	for k, e := range plan {
		if !c.est.update(e, at, samples[k]) {
			continue
		}
		c.outages++
		if c.metrics != nil {
			c.metrics.outage()
		}
		c.onEdgeDown(e)
	}
}

// onEdgeDown reacts to an edge down-transition: every pair whose
// current route uses the edge gets a forced decision, and all of that
// pair's candidate edges become urgent probes so the failover has
// fresh data to choose from.
func (c *Controller) onEdgeDown(edge int) {
	for p := range c.routes {
		e1, e2 := c.mesh.routeEdges(p, c.routes[p])
		if e1 != edge && e2 != edge {
			continue
		}
		c.forced[p] = true
		ij := c.mesh.pairs[p]
		c.urgent[p] = true
		for r := 0; r < c.mesh.n; r++ {
			if r == ij[0] || r == ij[1] {
				continue
			}
			c.urgent[c.mesh.edge(ij[0], r)] = true
			c.urgent[c.mesh.edge(r, ij[1])] = true
		}
	}
}

// routeScore scores a route for pair p from the estimator: the summed
// edge scores, +Inf if any leg is unprobed or down.
func (c *Controller) routeScore(p, route int, now netsim.Time) float64 {
	e1, e2 := c.mesh.routeEdges(p, route)
	if c.est.isDown(e1) {
		return math.Inf(1)
	}
	s := c.est.score(e1, now)
	if e2 >= 0 {
		if c.est.isDown(e2) {
			return math.Inf(1)
		}
		s += c.est.score(e2, now)
	}
	return s
}

// relayScratch is one Decide worker's candidate-selection buffers. As
// a sort.Interface it orders order by score; sort.Stable runs the same
// algorithm as sort.SliceStable, without a closure to allocate.
type relayScratch struct {
	relays []int     // candidate relay node indices, ascending
	scores []float64 // route score through relays[k]
	order  []int     // indices into relays, sorted by score
	out    []int     // the kept relays, ascending
}

func (s *relayScratch) Len() int           { return len(s.order) }
func (s *relayScratch) Less(a, b int) bool { return s.scores[s.order[a]] < s.scores[s.order[b]] }
func (s *relayScratch) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }

// candidateRelays returns the relay node indices pair p may consider,
// in ascending node order, restricted to the MaxCandidates best by
// current score when the bound is set. The result lives in s and is
// valid until s is used again.
func (c *Controller) candidateRelays(p int, now netsim.Time, s *relayScratch) []int {
	ij := c.mesh.pairs[p]
	s.relays = s.relays[:0]
	for r := 0; r < c.mesh.n; r++ {
		if r != ij[0] && r != ij[1] {
			s.relays = append(s.relays, r)
		}
	}
	if c.cfg.MaxCandidates <= 0 || len(s.relays) <= c.cfg.MaxCandidates {
		return s.relays
	}
	s.scores, s.order = s.scores[:0], s.order[:0]
	for k, r := range s.relays {
		s.scores = append(s.scores, c.routeScore(p, r, now))
		s.order = append(s.order, k)
	}
	sort.Stable(s)
	kept := s.order[:c.cfg.MaxCandidates]
	sort.Ints(kept)
	s.out = s.out[:0]
	for _, idx := range kept {
		s.out = append(s.out, s.relays[idx])
	}
	return s.out
}

// decideOne computes pair p's next route. Ordinary switches require
// the challenger to undercut the incumbent by the hysteresis margin;
// forced decisions (current route down) take the best eligible route
// outright, or hold position when nothing eligible exists yet.
func (c *Controller) decideOne(p int, now netsim.Time, scratch *relayScratch) int {
	cur := c.routes[p]
	best, bestScore := Direct, c.routeScore(p, Direct, now)
	for _, r := range c.candidateRelays(p, now, scratch) {
		if s := c.routeScore(p, r, now); s < bestScore {
			best, bestScore = r, s
		}
	}
	if math.IsInf(bestScore, 1) {
		return cur // nothing eligible; hold
	}
	if c.forced[p] {
		return best
	}
	curScore := c.routeScore(p, cur, now)
	if math.IsInf(curScore, 1) {
		// The incumbent became ineligible (down or never probed)
		// without a detector event for this pair; fail over.
		return best
	}
	margin := c.cfg.HysteresisFrac * curScore
	if margin < c.cfg.HysteresisAbsMs {
		margin = c.cfg.HysteresisAbsMs
	}
	if best != cur && bestScore < curScore-margin {
		return best
	}
	return cur
}

// Decide re-evaluates every pair's route, fanning the policy
// computation out over the configured worker count (reads only), then
// applying the decisions in pair order. Returns the number of
// switches made this tick.
func (c *Controller) Decide(ctx context.Context, now netsim.Time) (int, error) {
	next := make([]int, len(c.routes))
	workers := fanout.Workers(c.cfg.Concurrency)
	if len(c.scratch) < workers {
		c.scratch = make([]relayScratch, workers)
	}
	err := fanout.For(ctx, workers, len(c.routes), func(w, p int) error {
		next[p] = c.decideOne(p, now, &c.scratch[w])
		return nil
	})
	if err != nil {
		return 0, err
	}
	switched := 0
	for p, r := range next {
		c.forced[p] = false
		if r != c.routes[p] {
			c.routes[p] = r
			switched++
		}
	}
	c.switches += switched
	if c.metrics != nil {
		c.metrics.switched(switched)
	}
	return switched, nil
}
