package overlay

import (
	"context"
	"fmt"
	"math"

	"pathsel/internal/fanout"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// Conditions is the environment an overlay evaluation runs in: a
// forwarding plane (static cache or failing timeline), the network
// model, the overlay node set, and the scored window. The harness runs
// the control loop from Start-WarmupSec so estimates exist when scoring
// begins at Start.
type Conditions struct {
	// Paths supplies default Internet routes. It need not be safe for
	// concurrent use: the harness calls it from a single goroutine.
	Paths PathProvider
	Net   *netsim.Network
	Nodes []topology.HostID
	Start netsim.Time
	End   netsim.Time
}

// VariantStats aggregates one routing variant's ground-truth
// performance over the scored window.
type VariantStats struct {
	// Availability is the fraction of scored (pair, tick) points where
	// the variant had a usable route (a path existed and its loss
	// probability was at most UsableLossMax).
	Availability float64
	// MeanRTTMs averages the expected round-trip time over the points
	// where all variants were simultaneously usable, so the three
	// variants are compared on identical samples.
	MeanRTTMs float64
	// MeanLoss averages the route's round-trip loss probability over
	// all scored points, counting 1 when no route existed.
	MeanLoss float64
}

// Result is the outcome of one overlay evaluation.
type Result struct {
	Pairs       int
	ScoredTicks int

	// Overlay is the online controller; Default always uses the direct
	// Internet path; Optimal picks, per scored tick, the best of direct
	// and every one-hop relay from ground truth (the offline bound).
	Overlay VariantStats
	Default VariantStats
	Optimal VariantStats

	// RelayShare is the fraction of scored (pair, tick) points the
	// overlay routed through a relay.
	RelayShare float64

	// Reactions are the observed failover reaction times in seconds:
	// from the first tick a pair's chosen route was unusable in ground
	// truth to the tick it reached a usable route by switching. Ticks
	// where the network healed under an unchanged route record nothing.
	Reactions []float64

	// OverlayRTTs, DefaultRTTs and OptimalRTTs are the per-point
	// expected RTTs behind MeanRTTMs, for CDFs.
	OverlayRTTs []float64
	DefaultRTTs []float64
	OptimalRTTs []float64

	ProbesSent      int
	Switches        int
	OutagesDetected int
}

// edgeTruth is the ground-truth state of one mesh edge at one tick.
type edgeTruth struct {
	ok       bool // both directions had a route
	rttMs    float64
	loss     float64 // combined both-way loss probability
	fwd, rev netsim.PathState
	fwdHops  int
	revHops  int
}

// routeTruth composes leg truths into a route's ground-truth state.
func routeTruth(t1 edgeTruth, t2 *edgeTruth) (rttMs, loss float64, ok bool) {
	if !t1.ok {
		return 0, 1, false
	}
	rttMs, loss = t1.rttMs, t1.loss
	if t2 != nil {
		if !t2.ok {
			return 0, 1, false
		}
		rttMs += t2.rttMs
		loss = 1 - (1-loss)*(1-t2.loss)
	}
	return rttMs, loss, true
}

// Evaluate replays the overlay controller over the conditions' window
// and scores it against the always-direct default and the offline
// optimum. Two runs with the same Conditions and Config are
// bit-identical at any Concurrency setting.
func Evaluate(ctx context.Context, cond Conditions, cfg Config) (Result, error) {
	return EvaluateWithMetrics(ctx, cond, cfg, nil)
}

// EvaluateWithMetrics is Evaluate with an observability sink attached
// (nil is allowed).
func EvaluateWithMetrics(ctx context.Context, cond Conditions, cfg Config, m *Metrics) (Result, error) {
	if cond.Paths == nil || cond.Net == nil {
		return Result{}, fmt.Errorf("overlay: Conditions need Paths and Net")
	}
	if cond.End <= cond.Start {
		return Result{}, fmt.Errorf("overlay: empty window [%v, %v)", cond.Start, cond.End)
	}
	if ctx == nil {
		//repolint:allow ctxflow -- documented fallback: a nil ctx means never cancelled
		ctx = context.Background()
	}
	ctrl, err := NewController(cond.Nodes, cfg)
	if err != nil {
		return Result{}, err
	}
	ctrl.WithMetrics(m)
	h := &harness{
		ctx:     ctx,
		cond:    cond,
		cfg:     cfg,
		ctrl:    ctrl,
		mesh:    ctrl.mesh,
		workers: fanout.Workers(cfg.Concurrency),
		metrics: m,
	}
	return h.run()
}

// harness drives the controller tick by tick against ground truth.
type harness struct {
	ctx     context.Context
	cond    Conditions
	cfg     Config
	ctrl    *Controller
	mesh    *mesh
	workers int
	metrics *Metrics
	rngs    []*probeRNG // one per worker

	// Per-tick edge truth cache: truth[e] is valid for the current tick
	// iff valid[e]; fwdPath/revPath hold the tick's resolved routes.
	truth   []edgeTruth
	valid   []bool
	fwdOK   []bool
	fwdLnk  [][]topology.LinkID
	revLnk  [][]topology.LinkID
	fwdHops []int
	revHops []int

	// Reaction tracking.
	downActive []bool
	downSince  []netsim.Time
	downRoute  []int

	// Scoring accumulators. Index: 0 overlay, 1 default, 2 optimal.
	// maxPoints bounds the RTT cloud points: scored ticks × pairs.
	maxPoints       int
	scoredPairTicks int
	availCount      [3]int
	lossSum         [3]float64
	rttSum          [3]float64
	rttN            int
	relayCount      int
	res             Result
}

// resolveTruth fills the truth cache for every listed edge not yet
// valid this tick: route lookups run sequentially (PathProviders may
// not be concurrency-safe), network evaluation fans out.
func (h *harness) resolveTruth(t netsim.Time, edges []int) error {
	var missing []int
	for _, e := range edges {
		if h.valid[e] {
			continue
		}
		h.valid[e] = true
		missing = append(missing, e)
		ij := h.mesh.pairs[e]
		src, dst := h.cond.Nodes[ij[0]], h.cond.Nodes[ij[1]]
		fp, errF := h.cond.Paths.PathAt(src, dst, t)
		rp, errR := h.cond.Paths.PathAt(dst, src, t)
		if errF != nil || errR != nil {
			h.fwdOK[e] = false
			h.truth[e] = edgeTruth{}
			continue
		}
		h.fwdOK[e] = true
		h.fwdLnk[e], h.revLnk[e] = fp.Links, rp.Links
		h.fwdHops[e], h.revHops[e] = fp.Hops(), rp.Hops()
	}
	return fanout.For(h.ctx, h.workers, len(missing), func(_, k int) error {
		e := missing[k]
		if !h.fwdOK[e] {
			return nil
		}
		ij := h.mesh.pairs[e]
		src, dst := h.cond.Nodes[ij[0]], h.cond.Nodes[ij[1]]
		fst, rst, err := h.cond.Net.EvalRoundTrip(src, dst, h.fwdLnk[e], h.revLnk[e], t)
		if err != nil {
			h.truth[e] = edgeTruth{}
			return nil
		}
		h.truth[e] = edgeTruth{
			ok:      true,
			rttMs:   fst.DelayMs + rst.DelayMs,
			loss:    1 - (1-fst.LossProb)*(1-rst.LossProb),
			fwd:     fst,
			rev:     rst,
			fwdHops: h.fwdHops[e],
			revHops: h.revHops[e],
		}
		return nil
	})
}

// drawSamples turns the planned probes into samples. Each probe's
// randomness comes from its own generator keyed by (seed, edge,
// sequence number), so the draws are independent of which worker
// executes them. The generator is the worker's probeRNG re-seeded, and
// draws what rand.New(rand.NewSource(key)) would.
func (h *harness) drawSamples(plan []int, seqs []uint64, samples []Sample) error {
	return fanout.For(h.ctx, h.workers, len(plan), func(w, k int) error {
		e := plan[k]
		tr := h.truth[e]
		if !tr.ok {
			samples[k] = Sample{Lost: true}
			return nil
		}
		rng := h.rngs[w].reset(int64(mix64(uint64(h.cfg.Seed), uint64(e), seqs[k])))
		if rng.Float64() < tr.loss {
			samples[k] = Sample{Lost: true}
			return nil
		}
		rtt := h.cond.Net.SampleDelay(rng, tr.fwd, tr.fwdHops) +
			h.cond.Net.SampleDelay(rng, tr.rev, tr.revHops)
		samples[k] = Sample{RTTMs: rtt}
		return nil
	})
}

// chosenTruth returns the ground truth of pair p's current route.
func (h *harness) chosenTruth(p int) (rttMs, loss float64, ok bool) {
	e1, e2 := h.mesh.routeEdges(p, h.ctrl.routes[p])
	var t2 *edgeTruth
	if e2 >= 0 {
		t2 = &h.truth[e2]
	}
	return routeTruth(h.truth[e1], t2)
}

// usable applies the availability threshold to a route truth.
func (h *harness) usable(loss float64, ok bool) bool {
	return ok && loss <= h.cfg.UsableLossMax
}

// trackReactions updates the failover clock for every pair at tick t
// (routes are post-decision). Reactions are recorded only when the
// pair recovered by moving to a different route than the one that
// failed; scored is false during warmup, suppressing recording.
func (h *harness) trackReactions(t netsim.Time, scored bool) {
	for p := 0; p < h.mesh.edges(); p++ {
		_, loss, ok := h.chosenTruth(p)
		up := h.usable(loss, ok)
		if !up {
			if !h.downActive[p] {
				h.downActive[p] = true
				h.downSince[p] = t
				h.downRoute[p] = h.ctrl.routes[p]
			}
			continue
		}
		if h.downActive[p] {
			if scored && h.ctrl.routes[p] != h.downRoute[p] {
				sec := float64(t - h.downSince[p])
				h.res.Reactions = append(h.res.Reactions, sec)
				h.metrics.reaction(sec)
			}
			h.downActive[p] = false
		}
	}
}

// scoreTick compares overlay, default and optimal against ground truth
// for every pair; the truth cache already holds every edge.
func (h *harness) scoreTick() {
	type point struct {
		rtt  float64
		loss float64
		ok   bool
	}
	for p := 0; p < h.mesh.edges(); p++ {
		var pts [3]point
		pts[0].rtt, pts[0].loss, pts[0].ok = h.chosenTruth(p)
		pts[1].rtt, pts[1].loss, pts[1].ok = routeTruth(h.truth[p], nil)

		// Offline optimum: cheapest usable route by expected RTT among
		// direct and every one-hop relay.
		best := math.Inf(1)
		var bestLoss float64
		ij := h.mesh.pairs[p]
		if h.usable(pts[1].loss, pts[1].ok) && pts[1].rtt < best {
			best, bestLoss = pts[1].rtt, pts[1].loss
		}
		for r := 0; r < h.mesh.n; r++ {
			if r == ij[0] || r == ij[1] {
				continue
			}
			rtt, loss, ok := routeTruth(h.truth[h.mesh.edge(ij[0], r)], &h.truth[h.mesh.edge(r, ij[1])])
			if h.usable(loss, ok) && rtt < best {
				best, bestLoss = rtt, loss
			}
		}
		if !math.IsInf(best, 1) {
			pts[2] = point{rtt: best, loss: bestLoss, ok: true}
		} else {
			pts[2] = point{loss: 1}
		}

		h.scoredPairTicks++
		if h.ctrl.routes[p] != Direct {
			h.relayCount++
		}
		joint := true
		for v := 0; v < 3; v++ {
			u := h.usable(pts[v].loss, pts[v].ok)
			if u {
				h.availCount[v]++
			} else {
				joint = false
			}
			if pts[v].ok {
				h.lossSum[v] += pts[v].loss
			} else {
				h.lossSum[v] += 1
			}
		}
		if joint {
			if h.res.OverlayRTTs == nil {
				h.res.OverlayRTTs = make([]float64, 0, h.maxPoints)
				h.res.DefaultRTTs = make([]float64, 0, h.maxPoints)
				h.res.OptimalRTTs = make([]float64, 0, h.maxPoints)
			}
			h.rttN++
			h.rttSum[0] += pts[0].rtt
			h.rttSum[1] += pts[1].rtt
			h.rttSum[2] += pts[2].rtt
			h.res.OverlayRTTs = append(h.res.OverlayRTTs, pts[0].rtt)
			h.res.DefaultRTTs = append(h.res.DefaultRTTs, pts[1].rtt)
			h.res.OptimalRTTs = append(h.res.OptimalRTTs, pts[2].rtt)
		}
	}
}

// run executes the control loop and assembles the result.
func (h *harness) run() (Result, error) {
	M := h.mesh.edges()
	h.truth = make([]edgeTruth, M)
	h.valid = make([]bool, M)
	h.fwdOK = make([]bool, M)
	h.fwdLnk = make([][]topology.LinkID, M)
	h.revLnk = make([][]topology.LinkID, M)
	h.fwdHops = make([]int, M)
	h.revHops = make([]int, M)
	h.downActive = make([]bool, M)
	h.downSince = make([]netsim.Time, M)
	h.downRoute = make([]int, M)
	h.res.Pairs = M
	h.rngs = make([]*probeRNG, h.workers)
	for w := range h.rngs {
		h.rngs[w] = newProbeRNG()
	}

	allEdges := make([]int, M)
	for e := range allEdges {
		allEdges[e] = e
	}
	routeEdgesNeeded := func() []int {
		var need []int
		for p := 0; p < M; p++ {
			e1, e2 := h.mesh.routeEdges(p, h.ctrl.routes[p])
			need = append(need, e1)
			if e2 >= 0 {
				need = append(need, e2)
			}
		}
		return need
	}

	start0 := h.cond.Start - netsim.Time(h.cfg.WarmupSec)
	warmupTicks := int(h.cfg.WarmupSec/h.cfg.TickSec + 0.5)
	scoreEvery := int(h.cfg.ScoreIntervalSec/h.cfg.TickSec + 0.5)
	if scoreEvery < 1 {
		scoreEvery = 1
	}
	// Tick times rise with k, so the scored ticks are those of the
	// loop below from warmupTicks on that start before the end.
	for k := warmupTicks; start0+netsim.Time(float64(k)*h.cfg.TickSec) < h.cond.End; k += scoreEvery {
		h.maxPoints += M
	}
	seqs := make([]uint64, 0, M)
	samples := make([]Sample, 0, M)

	for k := 0; ; k++ {
		t := start0 + netsim.Time(float64(k)*h.cfg.TickSec)
		if t >= h.cond.End {
			break
		}
		if err := h.ctx.Err(); err != nil {
			return Result{}, err
		}
		for e := range h.valid {
			h.valid[e] = false
		}

		// Measure: plan, execute and ingest this tick's probes.
		plan := h.ctrl.PlanProbes()
		seqs = seqs[:0]
		for _, e := range plan {
			seqs = append(seqs, h.ctrl.ProbeSeq(e))
		}
		if err := h.resolveTruth(t, plan); err != nil {
			return Result{}, err
		}
		samples = samples[:len(plan)]
		if err := h.drawSamples(plan, seqs, samples); err != nil {
			return Result{}, err
		}
		h.ctrl.Ingest(t, plan, samples)

		// Decide: re-evaluate every pair's route.
		if _, err := h.ctrl.Decide(h.ctx, t); err != nil {
			return Result{}, err
		}

		// Score: evaluate the post-decision routes against ground truth.
		scored := k >= warmupTicks
		scoring := scored && (k-warmupTicks)%scoreEvery == 0
		if scoring {
			if err := h.resolveTruth(t, allEdges); err != nil {
				return Result{}, err
			}
		} else if err := h.resolveTruth(t, routeEdgesNeeded()); err != nil {
			return Result{}, err
		}
		h.trackReactions(t, scored)
		if scoring {
			h.scoreTick()
			h.res.ScoredTicks++
		}
	}

	if h.scoredPairTicks > 0 {
		n := float64(h.scoredPairTicks)
		h.res.Overlay.Availability = float64(h.availCount[0]) / n
		h.res.Default.Availability = float64(h.availCount[1]) / n
		h.res.Optimal.Availability = float64(h.availCount[2]) / n
		h.res.Overlay.MeanLoss = h.lossSum[0] / n
		h.res.Default.MeanLoss = h.lossSum[1] / n
		h.res.Optimal.MeanLoss = h.lossSum[2] / n
		h.res.RelayShare = float64(h.relayCount) / n
	}
	if h.rttN > 0 {
		h.res.Overlay.MeanRTTMs = h.rttSum[0] / float64(h.rttN)
		h.res.Default.MeanRTTMs = h.rttSum[1] / float64(h.rttN)
		h.res.Optimal.MeanRTTMs = h.rttSum[2] / float64(h.rttN)
	}
	h.res.ProbesSent = h.ctrl.ProbesSent()
	h.res.Switches = h.ctrl.Switches()
	h.res.OutagesDetected = h.ctrl.OutagesDetected()
	return h.res, nil
}
