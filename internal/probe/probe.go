// Package probe implements the measurement instruments the paper's
// datasets were collected with: a simulated traceroute (three RTT echo
// samples per invocation, per-hop router discovery, ICMP rate-limiting
// behaviour at some targets), a single-shot ping, and an npd-style TCP
// transfer measurement that records the RTT and loss a TCP session
// observes (used for the N2 bandwidth dataset).
//
// Echo round-trip times traverse the forward path to the target and the
// (possibly different) reverse path back, so routing asymmetry shows up
// in the measurements just as it did for the paper's authors.
package probe

import (
	"fmt"
	"math/rand"

	"pathsel/internal/forward"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// SamplesPerTraceroute is the number of echo samples a single traceroute
// invocation takes to the final host ("Each traceroute invocation takes
// three consecutive samples of the round trip time to the end host").
const SamplesPerTraceroute = 3

// Config tunes instrument behaviour.
type Config struct {
	// Seed feeds the prober's sampling randomness.
	Seed int64
	// ContactFailProb is the chance the control host cannot contact the
	// remote server at all, so no measurement is made.
	ContactFailProb float64
	// RateLimitDropProb is the probability that a rate-limiting target
	// drops each echo sample after the first.
	RateLimitDropProb float64
	// TransferPackets is the number of packets observed by a TCP
	// transfer measurement.
	TransferPackets int
}

// DefaultConfig returns instrument settings matching the paper's setup.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		ContactFailProb:   0.02,
		RateLimitDropProb: 0.75,
		TransferPackets:   200,
	}
}

// Sample is one echo round-trip measurement.
type Sample struct {
	RTTMs float64
	Lost  bool
}

// Result is the outcome of one traceroute or ping invocation.
type Result struct {
	Src, Dst topology.HostID
	At       netsim.Time
	// Failed is set when the control host could not contact the server;
	// no other fields besides Src/Dst/At are meaningful.
	Failed bool
	// Samples are the echo samples to the destination host.
	Samples []Sample
	// HopRouters is the forward path revealed by the traceroute
	// (attachment router of the source through attachment router of the
	// destination). Empty for pings.
	HopRouters []topology.RouterID
	// ASPath is the forward AS-level path (derived from HopRouters).
	// Like HopRouters it is shared with later results over the same
	// forwarding path and must not be modified.
	ASPath []topology.ASN
}

// LostCount returns how many samples were lost.
func (r Result) LostCount() int {
	n := 0
	for _, s := range r.Samples {
		if s.Lost {
			n++
		}
	}
	return n
}

// TransferResult is an npd/tcpanaly-style measurement of a TCP session.
type TransferResult struct {
	Src, Dst topology.HostID
	At       netsim.Time
	Failed   bool
	// MeanRTTMs is the session's mean round-trip time.
	MeanRTTMs float64
	// LossRate is the fraction of the session's packets that were lost.
	LossRate float64
	// Packets is the number of packets the session sent.
	Packets int
}

// PathProvider supplies the forwarding path between two hosts at a
// simulated time. A static *forward.Forwarder (wrapped in a cache)
// satisfies it for converged-network campaigns; the dynamics package's
// Timeline satisfies it for campaigns over a failing, reconverging
// network.
type PathProvider interface {
	PathAt(src, dst topology.HostID, at netsim.Time) (forward.Path, error)
}

// Prober issues simulated measurements over a forwarding plane and
// network model.
type Prober struct {
	top   *topology.Topology
	paths PathProvider
	net   *netsim.Network
	cfg   Config
	rng   *rand.Rand
	// asPaths holds, per ordered pair, the AS path of the last forward
	// path a traceroute revealed, so it is derived once per forwarding
	// path rather than once per traceroute.
	asPaths map[[2]topology.HostID]asPathMemo
}

// asPathMemo is the AS path of one forwarding path, identified by its
// Routers slice. Path providers hand out memoized paths whose slices
// are never modified, so the same backing array means the same path; a
// provider that changes a pair's path (a dynamics timeline crossing an
// epoch) hands out a different array, and the AS path is derived again.
type asPathMemo struct {
	routers []topology.RouterID
	as      []topology.ASN
}

// New creates a Prober over a static converged forwarding plane.
func New(top *topology.Topology, fwd *forward.Forwarder, net *netsim.Network, cfg Config) *Prober {
	return NewWithProvider(top, forward.NewCache(fwd), net, cfg)
}

// NewWithProvider creates a Prober over an arbitrary (possibly
// time-dependent) path provider.
func NewWithProvider(top *topology.Topology, paths PathProvider, net *netsim.Network, cfg Config) *Prober {
	return &Prober{
		top: top, paths: paths, net: net, cfg: cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		asPaths: map[[2]topology.HostID]asPathMemo{},
	}
}

// asPath returns the AS path of fp, the forwarding path from src to dst.
func (p *Prober) asPath(src, dst topology.HostID, fp forward.Path) []topology.ASN {
	key := [2]topology.HostID{src, dst}
	m, ok := p.asPaths[key]
	if ok && len(m.routers) == len(fp.Routers) && (len(fp.Routers) == 0 || &m.routers[0] == &fp.Routers[0]) {
		return m.as
	}
	m = asPathMemo{routers: fp.Routers, as: fp.ASPath(p.top)}
	p.asPaths[key] = m
	return m.as
}

// path returns the forwarding path between two hosts at time t.
func (p *Prober) path(src, dst topology.HostID, at netsim.Time) (forward.Path, error) {
	return p.paths.PathAt(src, dst, at)
}

// echo draws one echo sample over the forward and reverse paths at time t.
func (p *Prober) echo(fwdPath, revPath forward.Path, src, dst topology.HostID, t netsim.Time) (Sample, error) {
	fst, rst, err := p.net.EvalRoundTrip(src, dst, fwdPath.Links, revPath.Links, t)
	if err != nil {
		return Sample{}, err
	}
	lossProb := 1 - (1-fst.LossProb)*(1-rst.LossProb)
	if p.rng.Float64() < lossProb {
		return Sample{Lost: true}, nil
	}
	rtt := p.net.SampleDelay(p.rng, fst, fwdPath.Hops()) + p.net.SampleDelay(p.rng, rst, revPath.Hops())
	return Sample{RTTMs: rtt}, nil
}

// Traceroute issues one traceroute from src to dst at time t: the forward
// hop list plus SamplesPerTraceroute echo samples. Rate-limiting targets
// drop echo samples after the first with RateLimitDropProb, inflating the
// apparent loss rate exactly as in the paper's D2 discussion.
func (p *Prober) Traceroute(src, dst topology.HostID, t netsim.Time) (Result, error) {
	return p.AppendTraceroute(nil, src, dst, t)
}

// AppendTraceroute is Traceroute with the echo samples appended to buf:
// unless the traceroute failed, the result's Samples is buf extended by
// SamplesPerTraceroute samples, sharing buf's array when it has room. A
// campaign passes the same buf[:0] to every traceroute, so it allocates
// no samples; each result's samples are then valid only until the next
// call.
func (p *Prober) AppendTraceroute(buf []Sample, src, dst topology.HostID, t netsim.Time) (Result, error) {
	if p.top.Host(src) == nil || p.top.Host(dst) == nil {
		return Result{}, fmt.Errorf("probe: unknown host %d or %d", src, dst)
	}
	res := Result{Src: src, Dst: dst, At: t}
	if p.rng.Float64() < p.cfg.ContactFailProb {
		res.Failed = true
		return res, nil
	}
	// A pair with no usable route (e.g. during an outage epoch) yields
	// a failed measurement, exactly as the paper's control host
	// "occasionally unable to contact the server it selected".
	fwdPath, err := p.path(src, dst, t)
	if err != nil {
		res.Failed = true
		return res, nil
	}
	revPath, err := p.path(dst, src, t)
	if err != nil {
		res.Failed = true
		return res, nil
	}
	res.HopRouters = fwdPath.Routers
	res.ASPath = p.asPath(src, dst, fwdPath)
	if cap(buf)-len(buf) < SamplesPerTraceroute {
		grown := make([]Sample, len(buf), len(buf)+SamplesPerTraceroute)
		copy(grown, buf)
		buf = grown
	}
	res.Samples = buf

	rateLimited := p.top.Host(dst).RateLimitICMP
	// Successive samples are a few seconds apart (each TTL round takes
	// time); the offsets keep samples inside the same network state.
	for i := 0; i < SamplesPerTraceroute; i++ {
		at := t + netsim.Time(float64(i)*2.5)
		s, err := p.echo(fwdPath, revPath, src, dst, at)
		if err != nil {
			return Result{}, err
		}
		if rateLimited && i > 0 && p.rng.Float64() < p.cfg.RateLimitDropProb {
			s = Sample{Lost: true}
		}
		res.Samples = append(res.Samples, s)
	}
	return res, nil
}

// Ping issues a single echo sample without hop discovery.
func (p *Prober) Ping(src, dst topology.HostID, t netsim.Time) (Result, error) {
	if p.top.Host(src) == nil || p.top.Host(dst) == nil {
		return Result{}, fmt.Errorf("probe: unknown host %d or %d", src, dst)
	}
	res := Result{Src: src, Dst: dst, At: t}
	if p.rng.Float64() < p.cfg.ContactFailProb {
		res.Failed = true
		return res, nil
	}
	fwdPath, err := p.path(src, dst, t)
	if err != nil {
		res.Failed = true
		return res, nil
	}
	revPath, err := p.path(dst, src, t)
	if err != nil {
		res.Failed = true
		return res, nil
	}
	s, err := p.echo(fwdPath, revPath, src, dst, t)
	if err != nil {
		return Result{}, err
	}
	res.Samples = []Sample{s}
	return res, nil
}

// Transfer simulates an npd-style TCP transfer: the session observes the
// network's forward-path loss and both-way delay over TransferPackets
// packets. TCP acknowledges over the reverse path, so RTT includes it;
// data loss is dominated by the forward path.
func (p *Prober) Transfer(src, dst topology.HostID, t netsim.Time) (TransferResult, error) {
	if p.top.Host(src) == nil || p.top.Host(dst) == nil {
		return TransferResult{}, fmt.Errorf("probe: unknown host %d or %d", src, dst)
	}
	// A transfer lasts tens of seconds; sample the network state a few
	// times across it and accumulate.
	const states = 5
	if p.cfg.TransferPackets < states {
		return TransferResult{}, fmt.Errorf("probe: TransferPackets %d is below the %d network states a transfer samples",
			p.cfg.TransferPackets, states)
	}
	res := TransferResult{Src: src, Dst: dst, At: t, Packets: p.cfg.TransferPackets}
	if p.rng.Float64() < p.cfg.ContactFailProb {
		res.Failed = true
		return res, nil
	}
	fwdPath, err := p.path(src, dst, t)
	if err != nil {
		res.Failed = true
		return res, nil
	}
	revPath, err := p.path(dst, src, t)
	if err != nil {
		res.Failed = true
		return res, nil
	}
	rttSum := 0.0
	lost := 0
	perState := p.cfg.TransferPackets / states
	for k := 0; k < states; k++ {
		at := t + netsim.Time(float64(k)*8)
		fst, rst, err := p.net.EvalRoundTrip(src, dst, fwdPath.Links, revPath.Links, at)
		if err != nil {
			return TransferResult{}, err
		}
		rttSum += fst.DelayMs + rst.DelayMs
		for i := 0; i < perState; i++ {
			if p.rng.Float64() < fst.LossProb {
				lost++
			}
		}
	}
	res.MeanRTTMs = rttSum / states
	res.LossRate = float64(lost) / float64(perState*states)
	res.Packets = perState * states
	return res, nil
}
