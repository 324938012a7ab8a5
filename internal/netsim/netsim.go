// Package netsim models the dynamic performance of the synthetic
// Internet: per-link background utilization with diurnal and weekly load
// patterns, utilization-dependent queuing delay and packet loss, shared
// congestion at exchange points, and brief outage windows that stand in
// for the route flaps and failures observed in the paper's datasets.
//
// The model is analytic rather than packet-level: the state of every link
// at every instant is a deterministic function of (seed, link, time), so
// simultaneous measurements of different paths see a mutually consistent
// network — the property the paper's UW4-A episodes depend on — and whole
// multi-week measurement campaigns run in milliseconds.
package netsim

import (
	"fmt"
	"math"
	"math/rand"

	"pathsel/internal/topology"
)

// Config tunes the congestion model. Use DefaultConfig as a base.
type Config struct {
	// Seed decorrelates the network's stochastic processes from the
	// topology seed.
	Seed int64

	// BaseUtilization by link role at the height of the working day.
	UtilCore     float64
	UtilTransit  float64
	UtilEdge     float64
	UtilAccess   float64
	ExchangeBump float64 // extra utilization on exchange-point links
	// ExchangeNoiseAmp scales exchange-wide congestion swings shared by
	// every link at the same public exchange fabric.
	ExchangeNoiseAmp float64

	// DriftAmp and JitterAmp scale slow (minutes-scale) and fast
	// (seconds-scale) random load variation.
	DriftAmp  float64
	JitterAmp float64
	// DriftPeriodSec and JitterPeriodSec are the noise grid periods.
	DriftPeriodSec  float64
	JitterPeriodSec float64

	// NightFloor is the fraction of peak load present at the quietest
	// hour; weekends run at WeekendFactor of the weekday curve.
	NightFloor    float64
	WeekendFactor float64

	// BaseLoss is the floor loss probability per link; CongestionLoss
	// scales the loss added as utilization exceeds LossKnee.
	BaseLoss       float64
	CongestionLoss float64
	LossKnee       float64

	// BufferPackets caps the fine-grained (per-flow) queue length in
	// packets of PacketBytes.
	BufferPackets float64
	PacketBytes   float64

	// QueueKnee is the utilization above which persistent overload
	// builds standing queues; BufferMs is the full-buffer delay those
	// queues reach (mid/late-90s routers carried hundreds of
	// milliseconds of FIFO buffering at bottlenecks, independent of
	// line rate).
	QueueKnee float64
	BufferMs  float64

	// FlapProbPerHour is the chance a link suffers an outage window in
	// any given hour; FlapWindowSec is the window length; FlapLoss is
	// the loss probability during the window.
	FlapProbPerHour float64
	FlapWindowSec   float64
	FlapLoss        float64

	// ProcessingJitterMs is the mean of the exponential per-sample
	// jitter added to a measured RTT (router forwarding variance, host
	// scheduling).
	ProcessingJitterMs float64

	// RouteWanderAmp scales the slow per-link baseline-delay wander that
	// stands in for route changes: over days, the effective fixed delay
	// of a link drifts by up to this fraction of its propagation delay,
	// as reroutes did in the paper's datasets (Paxson's route
	// fluctuation). RouteWanderPeriodSec is the wander timescale.
	RouteWanderAmp       float64
	RouteWanderPeriodSec float64
}

// DefaultConfig returns the baseline congestion model (the 1998-99
// Internet of the UW datasets).
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		UtilCore:             0.42,
		UtilTransit:          0.52,
		UtilEdge:             0.45,
		UtilAccess:           0.35,
		ExchangeBump:         0.30,
		ExchangeNoiseAmp:     0.20,
		DriftAmp:             0.24,
		JitterAmp:            0.10,
		DriftPeriodSec:       600,
		JitterPeriodSec:      15,
		NightFloor:           0.30,
		WeekendFactor:        0.45,
		BaseLoss:             0.0004,
		CongestionLoss:       0.12,
		LossKnee:             0.70,
		BufferPackets:        512,
		PacketBytes:          1500,
		QueueKnee:            0.75,
		BufferMs:             400,
		FlapProbPerHour:      0.012,
		FlapWindowSec:        240,
		FlapLoss:             0.85,
		ProcessingJitterMs:   0.3,
		RouteWanderAmp:       0.22,
		RouteWanderPeriodSec: 100000,
	}
}

// ConfigFor returns the congestion model for an era. The mid-90s preset
// runs hotter — the NAP-congestion period the D2/N2 datasets were
// collected in — with more load variation and more frequent outages.
func ConfigFor(era topology.Era) Config {
	cfg := DefaultConfig()
	if era == topology.Era1995 {
		cfg.UtilCore = 0.48
		cfg.UtilTransit = 0.62
		cfg.UtilEdge = 0.55
		cfg.ExchangeBump = 0.40
		cfg.ExchangeNoiseAmp = 0.22
		cfg.DriftAmp = 0.28
		cfg.CongestionLoss = 0.16
		cfg.FlapProbPerHour = 0.02
		cfg.BufferMs = 520
	}
	return cfg
}

// Validate reports a descriptive error for configurations that the
// model cannot evaluate sensibly.
func (c Config) Validate() error {
	switch {
	case c.PacketBytes <= 0:
		return fmt.Errorf("netsim: PacketBytes must be positive")
	case c.BufferPackets <= 0:
		return fmt.Errorf("netsim: BufferPackets must be positive")
	case c.BufferMs < 0:
		return fmt.Errorf("netsim: BufferMs must be non-negative")
	case c.QueueKnee <= 0 || c.QueueKnee >= 1:
		return fmt.Errorf("netsim: QueueKnee %.2f outside (0,1)", c.QueueKnee)
	case c.LossKnee <= 0 || c.LossKnee >= 1:
		return fmt.Errorf("netsim: LossKnee %.2f outside (0,1)", c.LossKnee)
	case c.BaseLoss < 0 || c.BaseLoss > 1:
		return fmt.Errorf("netsim: BaseLoss %.4f outside [0,1]", c.BaseLoss)
	case c.CongestionLoss < 0 || c.CongestionLoss > 1:
		return fmt.Errorf("netsim: CongestionLoss %.2f outside [0,1]", c.CongestionLoss)
	case c.FlapLoss < 0 || c.FlapLoss > 1:
		return fmt.Errorf("netsim: FlapLoss %.2f outside [0,1]", c.FlapLoss)
	case c.DriftPeriodSec <= 0 || c.JitterPeriodSec <= 0:
		return fmt.Errorf("netsim: noise periods must be positive")
	case c.WeekendFactor < 0 || c.WeekendFactor > 1:
		return fmt.Errorf("netsim: WeekendFactor %.2f outside [0,1]", c.WeekendFactor)
	case c.NightFloor < 0 || c.NightFloor > 1:
		return fmt.Errorf("netsim: NightFloor %.2f outside [0,1]", c.NightFloor)
	case c.RouteWanderAmp != 0 && c.RouteWanderPeriodSec <= 0:
		return fmt.Errorf("netsim: RouteWanderPeriodSec must be positive when RouteWanderAmp is set")
	case c.FlapWindowSec < 0 || c.FlapWindowSec > 3600:
		return fmt.Errorf("netsim: FlapWindowSec %.0f outside [0,3600]", c.FlapWindowSec)
	case c.FlapProbPerHour < 0 || c.FlapProbPerHour > 1:
		return fmt.Errorf("netsim: FlapProbPerHour %.4f outside [0,1]", c.FlapProbPerHour)
	}
	return nil
}

// Network evaluates link and path performance at simulated times.
//
// Every link quantity is computed by one kernel, linkAt (accessAt for
// host access links), from three precomputed inputs: the per-link static
// table built in New, a clock holding the terms that depend only on the
// time, and the link's diurnal activity. The public per-quantity methods
// are thin wrappers over that kernel, so each formula exists exactly
// once.
type Network struct {
	top *topology.Topology
	cfg Config
	// links holds the time-independent terms of every link, indexed by
	// LinkID. The topology is immutable after generation, so the table
	// is written only in New and read concurrently afterwards.
	links []linkStatic
}

// linkStatic is the part of a link's congestion model that does not
// depend on time.
type linkStatic struct {
	baseUtil  float64 // peak-hour target utilization, exchange severity included
	hourOff   float64 // local-time offset from PST in hours, (lon+120)/15
	serviceMs float64 // transmission time of one packet
	propMs    float64 // physical propagation delay
	exchange  int     // exchange-point index, or -1
}

// New creates a network model over a topology.
func New(top *topology.Topology, cfg Config) *Network {
	n := &Network{top: top, cfg: cfg, links: make([]linkStatic, len(top.Links))}
	for i, l := range top.Links {
		a := top.Router(l.From).Loc
		b := top.Router(l.To).Loc
		lon := (a.LonDeg + b.LonDeg) / 2
		n.links[i] = linkStatic{
			baseUtil:  n.baseUtil(l),
			hourOff:   (lon + 120) / 15,
			serviceMs: cfg.PacketBytes * 8 / (l.CapacityMbps * 1000),
			propMs:    l.PropDelayMs,
			exchange:  l.Exchange,
		}
	}
	return n
}

// Config returns the model configuration.
func (n *Network) Config() Config { return n.cfg }

// clock holds the terms of the model that depend only on the time, so
// a path evaluation computes them once instead of once per link.
type clock struct {
	pstHour float64
	weekend bool
	drift   noiseGrid // DriftPeriodSec: link drift, exchange noise, access drift
	jitter  noiseGrid // JitterPeriodSec
	wander  noiseGrid // RouteWanderPeriodSec; zero when RouteWanderAmp is 0
	slot    int64     // hour-long outage slot
	inSlot  float64   // seconds since the slot began
}

// clockAt evaluates the time-only terms at t.
func (n *Network) clockAt(t Time) clock {
	slot, inSlot := outageSlot(t)
	c := clock{
		pstHour: t.PSTHour(),
		weekend: t.Weekend(),
		drift:   gridAt(t, n.cfg.DriftPeriodSec),
		jitter:  gridAt(t, n.cfg.JitterPeriodSec),
		slot:    slot,
		inSlot:  inSlot,
	}
	if n.cfg.RouteWanderAmp != 0 {
		c.wander = gridAt(t, n.cfg.RouteWanderPeriodSec)
	}
	return c
}

// activity returns the diurnal load level in [0,1] for a point whose
// local time is hourOff hours ahead of PST: a Gaussian bump peaked at
// 13:00 local time, damped on weekends.
func (n *Network) activity(c *clock, hourOff float64) float64 {
	h := localHour(c.pstHour, hourOff)
	// Distance to 13:00 on the 24h circle.
	d := math.Abs(h - 13)
	if d > 12 {
		d = 24 - d
	}
	a := math.Exp(-d * d / (2 * 4.5 * 4.5))
	if c.weekend {
		a *= n.cfg.WeekendFactor
	}
	return a
}

// exchangeSeverity returns the chronic congestion multiplier of an
// exchange point. Real exchanges differed enormously — mid-90s MAE-East
// ran saturated while others were fine — and this concentration is what
// lets detour paths route around specific meltdown points rather than
// facing uniform load everywhere.
func (n *Network) exchangeSeverity(exchange int) float64 {
	return 0.35 + 1.5*unit(hash64(uint64(n.cfg.Seed)^0x9999, uint64(exchange)+1, 0))
}

// baseUtil returns the peak-hour target utilization for a link.
func (n *Network) baseUtil(l *topology.Link) float64 {
	from := n.top.Router(l.From)
	cls := n.top.AS(from.AS).Class
	u := n.cfg.UtilEdge
	switch {
	case l.Rel != topology.Internal:
		// Inter-AS links inherit the higher of the two sides' classes.
		u = n.cfg.UtilTransit
		if cls == topology.Tier1 && n.top.AS(n.top.Router(l.To).AS).Class == topology.Tier1 {
			u = n.cfg.UtilCore
		}
	case cls == topology.Tier1:
		u = n.cfg.UtilCore
	case cls == topology.Transit:
		u = n.cfg.UtilTransit
	}
	if l.Exchange >= 0 {
		u += n.cfg.ExchangeBump * n.exchangeSeverity(l.Exchange)
	}
	return u
}

// LinkState is the instantaneous state of one link.
type LinkState struct {
	// Util is the utilization, in (0, 0.99].
	Util float64
	// PropMs is the effective fixed delay: the physical propagation
	// delay modulated by the slow route-wander process (reroutes change
	// path baselines for days at a time).
	PropMs float64
	// QueueMs is the expected queuing delay: an M/M/1 waiting time
	// (capped at the packet buffer) for the fine-grained component,
	// plus a standing-queue component that grows quadratically once
	// utilization crosses the overload knee — the persistent full
	// buffers of congested mid-90s exchange fabrics, whose delay is set
	// by buffer depth in time, not by a single packet's transmission
	// time.
	QueueMs float64
	// Loss is the packet-loss probability, combining the loss floor,
	// congestion loss above the knee, and outage windows (route flaps,
	// failures).
	Loss float64
}

// LinkState evaluates every quantity of a link at time t in one pass.
func (n *Network) LinkState(lid topology.LinkID, t Time) LinkState {
	c := n.clockAt(t)
	return n.linkAt(lid, &c, n.activity(&c, n.links[lid].hourOff))
}

// linkAt is the link kernel: it computes the link's utilization once
// and derives the delays and loss from it. act is the link's activity
// at the clock's time, n.activity(c, hourOff).
//
//repolint:hotpath
func (n *Network) linkAt(lid topology.LinkID, c *clock, act float64) LinkState {
	s := &n.links[lid]
	cfg := &n.cfg
	day := cfg.NightFloor + (1-cfg.NightFloor)*act
	u := s.baseUtil * day

	seed := uint64(cfg.Seed)
	id := uint64(lid) + 1
	u += cfg.DriftAmp * (c.drift.at(seed, id) - 0.5) * 2
	u += cfg.JitterAmp * (c.jitter.at(seed^0x5555, id) - 0.5) * 2
	if s.exchange >= 0 {
		// Exchange-wide congestion shared by all links at the fabric.
		exID := uint64(s.exchange) + 0x1000
		u += cfg.ExchangeNoiseAmp * (c.drift.at(seed^0x7777, exID) - 0.5) * 2
	}
	u = clamp(u, 0.02, 0.99)

	prop := s.propMs
	if amp := cfg.RouteWanderAmp; amp != 0 {
		w := c.wander.at(seed^0x3333, id)
		prop = s.propMs * (1 + amp*(w-0.5)*2)
	}

	p := n.congestionLoss(u)
	if eventAt(seed, id, c.slot, c.inSlot, cfg.FlapProbPerHour, cfg.FlapWindowSec) {
		p = 1 - (1-p)*(1-cfg.FlapLoss)
	}
	return LinkState{Util: u, PropMs: prop, QueueMs: n.queueMs(s.serviceMs, u), Loss: clamp(p, 0, 1)}
}

// queueMs is the expected queuing delay at utilization u of a link
// whose packet service time is s ms (see LinkState.QueueMs).
func (n *Network) queueMs(s, u float64) float64 {
	w := s * u / (1 - u)
	if max := s * n.cfg.BufferPackets; w > max {
		w = max
	}
	if u > n.cfg.QueueKnee {
		x := (u - n.cfg.QueueKnee) / (1 - n.cfg.QueueKnee)
		w += n.cfg.BufferMs * x * x
	}
	return w
}

// congestionLoss is the loss floor plus the congestion loss above the
// knee at utilization u, before outages and clamping.
func (n *Network) congestionLoss(u float64) float64 {
	p := n.cfg.BaseLoss
	if u > n.cfg.LossKnee {
		x := (u - n.cfg.LossKnee) / (1 - n.cfg.LossKnee)
		p += n.cfg.CongestionLoss * x * x * x
	}
	return p
}

// Utilization returns the instantaneous utilization of a link in
// (0, 0.99].
func (n *Network) Utilization(lid topology.LinkID, t Time) float64 {
	return n.LinkState(lid, t).Util
}

// LinkPropMs returns the link's effective fixed delay at time t (see
// LinkState.PropMs).
func (n *Network) LinkPropMs(lid topology.LinkID, t Time) float64 {
	return n.LinkState(lid, t).PropMs
}

// QueueDelayMs returns the expected queuing delay on a link at time t
// (see LinkState.QueueMs).
func (n *Network) QueueDelayMs(lid topology.LinkID, t Time) float64 {
	return n.LinkState(lid, t).QueueMs
}

// LossProb returns the packet-loss probability on a link at time t
// (see LinkState.Loss).
func (n *Network) LossProb(lid topology.LinkID, t Time) float64 {
	return n.LinkState(lid, t).Loss
}

// LinkDelayMs returns the effective fixed delay plus expected queuing
// delay for a link.
func (n *Network) LinkDelayMs(lid topology.LinkID, t Time) float64 {
	st := n.LinkState(lid, t)
	return st.PropMs + st.QueueMs
}

// accessAt is the access-link kernel: it models a host's access link
// as a synthetic link-like process keyed by the host ID, and returns
// its one-way delay (fixed plus expected queuing) and loss. act is the
// host's activity at the clock's time, n.activity(c, hostHourOff(h)).
//
//repolint:hotpath
func (n *Network) accessAt(h *topology.Host, c *clock, act float64) (delayMs, loss float64) {
	cfg := &n.cfg
	u := cfg.UtilAccess * (cfg.NightFloor + (1-cfg.NightFloor)*act)
	id := uint64(h.ID) + 0x9000000
	u += cfg.DriftAmp * (c.drift.at(uint64(cfg.Seed)^0x1212, id) - 0.5) * 2
	u = clamp(u, 0.02, 0.99)
	s := cfg.PacketBytes * 8 / (h.AccessCapacityMbps * 1000)
	return h.AccessDelayMs + n.queueMs(s, u), clamp(n.congestionLoss(u), 0, 1)
}

// PathState is the instantaneous expected performance of a one-way path.
type PathState struct {
	// DelayMs is propagation plus expected queuing delay, including the
	// endpoints' access links where hosts are involved.
	DelayMs float64
	// PropDelayMs is the fixed component only.
	PropDelayMs float64
	// LossProb is the probability that a packet is lost anywhere on the
	// path (links assumed independent).
	LossProb float64
}

// hostHourOff is a host's local-time offset from PST in hours.
func hostHourOff(h *topology.Host) float64 { return (h.Loc.LonDeg + 120) / 15 }

// actMemoSize is the number of slots in an activity memo; a power of
// two at least the number of distinct local-time offsets a typical
// round trip crosses.
const actMemoSize = 32

// actMemo caches activity values for one clock, keyed by the bits of a
// local-time offset. activity is a pure function of (clock, offset), so
// a hit returns the very float a recomputation would. Offsets repeat
// within a round trip: a link and its reverse have bitwise-equal
// hourOff because (a+b)/2 == (b+a)/2, the links inside a PoP share
// their routers' offset, and both directions cross the same access
// links. The memo is direct-mapped: a colliding offset evicts the
// slot's previous entry, which costs a recomputation, never a wrong
// value.
type actMemo struct {
	used uint32 // bit i set when slot i holds an entry
	key  [actMemoSize]uint64
	val  [actMemoSize]float64
}

// pathEval evaluates paths at one instant: the clock and the activity
// memo are shared by every link and access link it evaluates.
type pathEval struct {
	n    *Network
	c    clock
	memo actMemo
}

// init readies e for time t. It fills e in place rather than returning
// a pathEval, which would copy the memo.
func (e *pathEval) init(n *Network, t Time) {
	e.n, e.c = n, n.clockAt(t)
}

// activity is n.activity at e's clock, served from the memo when the
// offset has been seen.
//
//repolint:hotpath
func (e *pathEval) activity(hourOff float64) float64 {
	b := math.Float64bits(hourOff)
	i := (b * 0x9E3779B97F4A7C15) >> 59 // top 5 bits: actMemoSize slots
	if e.memo.used&(1<<i) != 0 && e.memo.key[i] == b {
		return e.memo.val[i]
	}
	a := e.n.activity(&e.c, hourOff)
	e.memo.used |= 1 << i
	e.memo.key[i], e.memo.val[i] = b, a
	return a
}

// links sums the one-way state of a sequence of links.
//
//repolint:hotpath
func (e *pathEval) links(links []topology.LinkID) PathState {
	st := PathState{}
	surv := 1.0
	for _, lid := range links {
		ls := e.n.linkAt(lid, &e.c, e.activity(e.n.links[lid].hourOff))
		st.PropDelayMs += ls.PropMs
		st.DelayMs += ls.PropMs + ls.QueueMs
		surv *= 1 - ls.Loss
	}
	st.LossProb = 1 - surv
	return st
}

// access is the access-link state of h.
func (e *pathEval) access(h *topology.Host) (delayMs, loss float64) {
	return e.n.accessAt(h, &e.c, e.activity(hostHourOff(h)))
}

// EvalLinks computes the instantaneous one-way state of a sequence of
// links at time t, without any host access links.
func (n *Network) EvalLinks(links []topology.LinkID, t Time) PathState {
	var e pathEval
	e.init(n, t)
	return e.links(links)
}

// EvalHostPath computes the one-way state of a host-to-host path,
// including both access links. A round trip is cheaper as one
// EvalRoundTrip than as two EvalHostPath calls.
func (n *Network) EvalHostPath(src, dst topology.HostID, links []topology.LinkID, t Time) (PathState, error) {
	hs, hd := n.top.Host(src), n.top.Host(dst)
	if hs == nil || hd == nil {
		return PathState{}, fmt.Errorf("netsim: unknown host %d or %d", src, dst)
	}
	var e pathEval
	e.init(n, t)
	st := e.links(links)
	sd, sl := e.access(hs)
	dd, dl := e.access(hd)
	st.DelayMs += sd + dd
	st.PropDelayMs += hs.AccessDelayMs + hd.AccessDelayMs
	st.LossProb = 1 - (1-st.LossProb)*(1-sl)*(1-dl)
	return st, nil
}

// EvalRoundTrip computes the one-way states of a round trip at time t:
// fwdState over fwd from src to dst and revState over rev from dst back
// to src. Each is bit-identical to the matching EvalHostPath call, but
// the clock, both access links and every activity value the two
// directions share are evaluated once.
//
//repolint:hotpath
func (n *Network) EvalRoundTrip(src, dst topology.HostID, fwd, rev []topology.LinkID, t Time) (fwdState, revState PathState, err error) {
	hs, hd := n.top.Host(src), n.top.Host(dst)
	if hs == nil || hd == nil {
		//repolint:allow hotalloc -- the error path only; a known pair allocates nothing
		return PathState{}, PathState{}, fmt.Errorf("netsim: unknown host %d or %d", src, dst)
	}
	var e pathEval
	e.init(n, t)
	fwdState = e.links(fwd)
	revState = e.links(rev)
	sd, sl := e.access(hs)
	dd, dl := e.access(hd)
	// Each direction adds its own source's access terms first, as
	// EvalHostPath does, so the sums round identically.
	fwdState.DelayMs += sd + dd
	fwdState.PropDelayMs += hs.AccessDelayMs + hd.AccessDelayMs
	fwdState.LossProb = 1 - (1-fwdState.LossProb)*(1-sl)*(1-dl)
	revState.DelayMs += dd + sd
	revState.PropDelayMs += hd.AccessDelayMs + hs.AccessDelayMs
	revState.LossProb = 1 - (1-revState.LossProb)*(1-dl)*(1-sl)
	return fwdState, revState, nil
}

// HostAccessState exposes the access-link model by host ID, for the
// packet-level data plane: the instantaneous one-way access delay
// (fixed plus expected queuing, in ms) and loss probability. ok is
// false when the host is unknown.
func (n *Network) HostAccessState(id topology.HostID, t Time) (delayMs, loss float64, ok bool) {
	h := n.top.Host(id)
	if h == nil {
		return 0, 0, false
	}
	c := n.clockAt(t)
	d, l := n.accessAt(h, &c, n.activity(&c, hostHourOff(h)))
	return d, l, true
}

// SampleDelay draws one concrete one-way delay sample: the fixed
// propagation component, plus an exponentially distributed queuing draw
// whose mean is the expected queuing delay (the M/M/1 waiting time is
// approximately exponential), plus per-hop processing jitter. The
// resulting samples have the right mean, are right-skewed like real
// round-trip measurements, and make low quantiles a usable propagation
// estimator — the property the paper's Section 7.2 relies on.
func (n *Network) SampleDelay(rng *rand.Rand, st PathState, hops int) float64 {
	queue := st.DelayMs - st.PropDelayMs
	if queue < 0 {
		queue = 0
	}
	d := st.PropDelayMs + rng.ExpFloat64()*queue
	for i := 0; i < hops; i++ {
		d += rng.ExpFloat64() * n.cfg.ProcessingJitterMs
	}
	return d
}

// SampleLoss draws whether a packet is lost on a path in the given state.
func (n *Network) SampleLoss(rng *rand.Rand, st PathState) bool {
	return rng.Float64() < st.LossProb
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
