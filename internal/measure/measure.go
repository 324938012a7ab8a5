// Package measure drives measurement campaigns against the synthetic
// Internet, reproducing the collection disciplines of the paper's five
// dataset families (Section 4.2): per-server uniform scheduling with
// random targets (UW1), exponentially distributed random-pair selection
// (UW3, UW4-B, and the npd-style D2/N2), and simultaneous all-pairs
// episodes (UW4-A). It also applies each dataset's ICMP rate-limiter
// policy and post-collection filtering.
package measure

import (
	"context"
	"fmt"
	"iter"
	"math/rand"

	"pathsel/internal/dataset"
	"pathsel/internal/netsim"
	"pathsel/internal/probe"
	"pathsel/internal/topology"
)

// Method selects the measurement instrument.
type Method int

const (
	// MethodTraceroute uses three-sample traceroutes (D2, UW datasets).
	MethodTraceroute Method = iota
	// MethodTransfer uses npd-style TCP transfer measurements (N2).
	MethodTransfer
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodTraceroute:
		return "traceroute"
	case MethodTransfer:
		return "tcpanaly"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Scheduler selects how measurement times and pairs are drawn.
type Scheduler int

const (
	// PerServerUniform gives every server its own uniform-interval
	// request clock with a random target each time (UW1: "chosen from a
	// per-server uniform distribution with a mean of 15 minutes").
	PerServerUniform Scheduler = iota
	// ExponentialPairs draws a single exponential arrival process and a
	// uniformly random ordered pair for each arrival (UW3, UW4-B, D2,
	// N2).
	ExponentialPairs
	// Episodes draws exponential episode times; in each episode every
	// ordered pair is measured "simultaneously" (UW4-A).
	Episodes
	// SampledPairs partitions the host pool into disjoint consecutive
	// clusters of Spec.ClusterSize and, at exponentially spaced rounds,
	// measures the full ordered mesh within each cluster. Pair coverage
	// stays dense while the pair count grows linearly in the pool size
	// instead of quadratically — the discipline the planet-scale preset
	// uses to keep 100k-host campaigns tractable.
	SampledPairs
)

// String implements fmt.Stringer.
func (s Scheduler) String() string {
	switch s {
	case PerServerUniform:
		return "per-server-uniform"
	case ExponentialPairs:
		return "exponential-pairs"
	case Episodes:
		return "episodes"
	case SampledPairs:
		return "sampled-pairs"
	default:
		return fmt.Sprintf("scheduler(%d)", int(s))
	}
}

// RateLimitPolicy is how a campaign treats ICMP rate-limiting hosts.
type RateLimitPolicy int

const (
	// KeepAll measures rate limiters like everything else; the dataset
	// must correct for the inflated loss afterwards (D2's first-sample
	// heuristic).
	KeepAll RateLimitPolicy = iota
	// FilterTargets never selects a rate limiter as a target but still
	// uses it as a source (UW1).
	FilterTargets
	// FilterHosts removes rate limiters from the host set entirely
	// (UW3, UW4), allowing paired measurements on every path.
	FilterHosts
)

// String implements fmt.Stringer.
func (p RateLimitPolicy) String() string {
	switch p {
	case KeepAll:
		return "keep-all"
	case FilterTargets:
		return "filter-targets"
	case FilterHosts:
		return "filter-hosts"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Spec describes one measurement campaign.
type Spec struct {
	Name  string
	Hosts []topology.HostID
	// Method and Scheduler select instrument and timing.
	Method    Method
	Scheduler Scheduler
	// MeanIntervalSec is the mean of the scheduling distribution: per
	// server for PerServerUniform, per arrival for ExponentialPairs,
	// per episode for Episodes.
	MeanIntervalSec float64
	// StartSec and DurationSec bound the campaign in simulated time.
	StartSec    float64
	DurationSec float64
	// ClusterSize partitions Hosts into consecutive disjoint clusters
	// of this size for the SampledPairs scheduler; pairs are measured
	// only within a cluster (a short final cluster keeps the leftover
	// hosts). Ignored by other schedulers.
	ClusterSize int
	// KeepSamples caps how many echo samples per traceroute count as
	// loss observations (1 implements the D2 heuristic; 0 means all).
	KeepSamples int
	// RateLimit is the rate-limiter policy.
	RateLimit RateLimitPolicy
	// MirrorMissing fills unmeasured directed paths with the reverse
	// direction's samples (UW1: "we use the round-trip measurements
	// from traceroutes initiated in the opposite direction").
	MirrorMissing bool
	// MinMeasurements drops paths with fewer measurements after
	// collection; 0 disables filtering.
	MinMeasurements int
	// Seed drives the campaign's scheduling randomness.
	Seed int64
	// Observer, when set, receives every probe result as it happens
	// (including failures) — used to stream textual traces to disk.
	// The result's Samples are reused by the next traceroute, so an
	// Observer that keeps them must copy them.
	Observer func(probe.Result)
}

// Validate reports problems with the spec.
func (s Spec) Validate() error {
	switch {
	case len(s.Hosts) < 2:
		return fmt.Errorf("measure: %s: need at least 2 hosts, have %d", s.Name, len(s.Hosts))
	case s.MeanIntervalSec <= 0:
		return fmt.Errorf("measure: %s: MeanIntervalSec must be positive", s.Name)
	case s.DurationSec <= 0:
		return fmt.Errorf("measure: %s: DurationSec must be positive", s.Name)
	case s.Method == MethodTransfer && s.Scheduler != ExponentialPairs:
		return fmt.Errorf("measure: %s: transfer campaigns require ExponentialPairs", s.Name)
	case s.Scheduler == SampledPairs && s.ClusterSize < 2:
		return fmt.Errorf("measure: %s: SampledPairs needs ClusterSize >= 2, have %d", s.Name, s.ClusterSize)
	case s.Scheduler == SampledPairs && s.Method != MethodTraceroute:
		return fmt.Errorf("measure: %s: SampledPairs campaigns require traceroutes", s.Name)
	}
	return nil
}

// Run executes the campaign and returns the collected dataset.
func Run(top *topology.Topology, prb *probe.Prober, spec Spec) (*dataset.Dataset, error) {
	//repolint:allow ctxflow -- Run is the documented never-cancelled convenience root of RunContext
	return RunContext(context.Background(), top, prb, spec)
}

// RunContext is Run bounded by a context: the campaign checks ctx
// between probes and aborts with ctx.Err() once it is cancelled, so a
// caller building datasets on demand (e.g. an HTTP request that has
// been abandoned) does not finish a campaign nobody will read.
func RunContext(ctx context.Context, top *topology.Topology, prb *probe.Prober, spec Spec) (*dataset.Dataset, error) {
	c, err := newCampaign(top, spec)
	if err != nil {
		return nil, err
	}
	// The schedule never reads a probe result, so replaying it from the
	// same seed yields the same slots: the first pass counts each
	// pair's probes, and the second sends them into per-pair storage
	// sized by those counts, which therefore never grows.
	rng := rand.New(rand.NewSource(spec.Seed))
	counts := countProbes(c.schedule(rng))
	rng.Seed(spec.Seed)

	ds := dataset.New(spec.Name, c.hosts)
	if err := c.probe(ctx, ds, prb, c.schedule(rng), counts); err != nil {
		return nil, err
	}
	if spec.MirrorMissing {
		mirrorMissing(ds)
	}
	if spec.MinMeasurements > 0 {
		ds.RemoveSparsePaths(spec.MinMeasurements)
	}
	return ds, nil
}

// campaign is a validated Spec over its rate-limit-filtered host and
// target sets.
type campaign struct {
	spec    Spec
	hosts   []topology.HostID
	targets []topology.HostID
	keep    int // loss observations kept per traceroute
}

func newCampaign(top *topology.Topology, spec Spec) (*campaign, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Scheduler < PerServerUniform || spec.Scheduler > SampledPairs {
		return nil, fmt.Errorf("measure: %s: unknown scheduler %v", spec.Name, spec.Scheduler)
	}
	hosts := append([]topology.HostID(nil), spec.Hosts...)
	if spec.RateLimit == FilterHosts {
		hosts = filterRateLimited(top, hosts)
		if len(hosts) < 2 {
			return nil, fmt.Errorf("measure: %s: fewer than 2 hosts after rate-limit filtering", spec.Name)
		}
	}
	targets := hosts
	if spec.RateLimit == FilterTargets {
		targets = filterRateLimited(top, hosts)
		if len(targets) == 0 {
			return nil, fmt.Errorf("measure: %s: no valid targets after rate-limit filtering", spec.Name)
		}
	}
	keep := spec.KeepSamples
	if keep <= 0 {
		keep = probe.SamplesPerTraceroute
	}
	return &campaign{spec: spec, hosts: hosts, targets: targets, keep: keep}, nil
}

func filterRateLimited(top *topology.Topology, hosts []topology.HostID) []topology.HostID {
	var out []topology.HostID
	for _, h := range hosts {
		if !top.Host(h).RateLimitICMP {
			out = append(out, h)
		}
	}
	return out
}

// A slot is one scheduled probe.
type slot struct {
	at       netsim.Time
	src, dst topology.HostID
	// round numbers the round a slot of the Episodes or SampledPairs
	// scheduler belongs to, and roundAt is that round's start time; the
	// other schedulers leave both zero.
	round   int
	roundAt netsim.Time
}

// schedule returns the campaign's probe slots in the order they are
// sent, drawn from rng and nothing else.
func (c *campaign) schedule(rng *rand.Rand) iter.Seq[slot] {
	return func(yield func(slot) bool) {
		switch c.spec.Scheduler {
		case PerServerUniform:
			c.perServer(rng, yield)
		case ExponentialPairs:
			c.exponentialPairs(rng, yield)
		case Episodes:
			c.rounds(rng, len(c.hosts), yield)
		case SampledPairs:
			c.rounds(rng, c.spec.ClusterSize, yield)
		}
	}
}

// perServer gives every host its own uniform-interval clock and always
// advances the earliest one, keeping the global probe order
// chronological (and deterministic).
func (c *campaign) perServer(rng *rand.Rand, yield func(slot) bool) {
	spec := c.spec
	end := spec.StartSec + spec.DurationSec
	clocks := make([]float64, len(c.hosts))
	for i := range clocks {
		clocks[i] = spec.StartSec + rng.Float64()*2*spec.MeanIntervalSec
	}
	for {
		srcIdx, at := -1, end
		for i, t := range clocks {
			if t < at {
				srcIdx, at = i, t
			}
		}
		if srcIdx == -1 {
			return
		}
		clocks[srcIdx] += rng.Float64() * 2 * spec.MeanIntervalSec
		src := c.hosts[srcIdx]
		dst := c.targets[rng.Intn(len(c.targets))]
		if dst == src {
			continue
		}
		if !yield(slot{at: netsim.Time(at), src: src, dst: dst}) {
			return
		}
	}
}

// exponentialPairs draws one exponential arrival process and a uniformly
// random ordered pair for each arrival.
func (c *campaign) exponentialPairs(rng *rand.Rand, yield func(slot) bool) {
	spec := c.spec
	end := spec.StartSec + spec.DurationSec
	at := spec.StartSec
	for {
		at += rng.ExpFloat64() * spec.MeanIntervalSec
		if at >= end {
			return
		}
		src := c.hosts[rng.Intn(len(c.hosts))]
		dst := c.targets[rng.Intn(len(c.targets))]
		if src == dst {
			continue
		}
		if !yield(slot{at: netsim.Time(at), src: src, dst: dst}) {
			return
		}
	}
}

// rounds draws exponentially spaced rounds and, in each, measures the
// full ordered mesh within every disjoint cluster of size consecutive
// hosts (a short final cluster keeps the leftover hosts). Probes are
// staggered 1.5 s apart within the round: each traceroute takes nonzero
// real time, as the paper notes. An Episodes round is one cluster of
// every host.
func (c *campaign) rounds(rng *rand.Rand, size int, yield func(slot) bool) {
	spec := c.spec
	end := spec.StartSec + spec.DurationSec
	at := spec.StartSec
	for round := 0; ; round++ {
		at += rng.ExpFloat64() * spec.MeanIntervalSec
		if at >= end {
			return
		}
		offset := 0.0
		for base := 0; base < len(c.hosts); base += size {
			cluster := c.hosts[base:min(base+size, len(c.hosts))]
			for _, src := range cluster {
				for _, dst := range cluster {
					if src == dst {
						continue
					}
					s := slot{at: netsim.Time(at + offset), src: src, dst: dst, round: round, roundAt: netsim.Time(at)}
					offset += 1.5
					if !yield(s) {
						return
					}
				}
			}
		}
	}
}

// countProbes tallies a schedule's probes per ordered pair.
func countProbes(slots iter.Seq[slot]) map[dataset.PairKey]int32 {
	counts := map[dataset.PairKey]int32{}
	for s := range slots {
		counts[dataset.PairKey{Src: s.src, Dst: s.dst}]++
	}
	return counts
}

// probe sends every slot and records the results in ds. counts holds
// each pair's probe count, which sizes the pair's storage when its
// first result is recorded. Episodes campaigns also record each round
// as an Episode of the mean RTT per pair.
func (c *campaign) probe(ctx context.Context, ds *dataset.Dataset, prb *probe.Prober, slots iter.Seq[slot],
	counts map[dataset.PairKey]int32) error {
	spec := c.spec
	// One traceroute's samples at a time: RecordEcho copies what it keeps.
	var buf [probe.SamplesPerTraceroute]probe.Sample
	var ep *dataset.Episode
	round := -1
	for s := range slots {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := dataset.PairKey{Src: s.src, Dst: s.dst}
		if spec.Method == MethodTransfer {
			res, err := prb.Transfer(s.src, s.dst, s.at)
			if err != nil {
				return fmt.Errorf("measure: %s: %w", spec.Name, err)
			}
			if !res.Failed {
				ds.RecordTransferSized(k, dataset.TransferSample{
					At: res.At, MeanRTTMs: res.MeanRTTMs, LossRate: res.LossRate, Packets: res.Packets,
				}, int(counts[k]))
			}
			continue
		}
		if spec.Scheduler == Episodes && s.round != round {
			if ep != nil {
				ds.AddEpisode(ep)
			}
			round = s.round
			n := len(c.hosts)
			ep = &dataset.Episode{At: s.roundAt, RTTMs: make(map[dataset.PairKey]float64, n*(n-1))}
		}
		res, err := prb.AppendTraceroute(buf[:0], s.src, s.dst, s.at)
		if err != nil {
			return fmt.Errorf("measure: %s: %w", spec.Name, err)
		}
		if spec.Observer != nil {
			spec.Observer(res)
		}
		if res.Failed {
			continue
		}
		recordResult(ds, res, c.keep, int(counts[k]))
		if ep != nil {
			if mean, ok := meanRTT(res.Samples); ok {
				ep.RTTMs[k] = mean
			}
		}
	}
	if ep != nil {
		ds.AddEpisode(ep)
	}
	return nil
}

// recordResult stores a successful traceroute in the dataset, sizing a
// new pair's storage for expect traceroutes.
func recordResult(ds *dataset.Dataset, res probe.Result, keep, expect int) {
	// A traceroute's samples fit the stack buffers; RecordEchoSized
	// copies what it keeps.
	var rttBuf [probe.SamplesPerTraceroute]float64
	var lostBuf [probe.SamplesPerTraceroute]bool
	rtts, lost := rttBuf[:0], lostBuf[:0]
	for _, s := range res.Samples {
		rtts = append(rtts, s.RTTMs)
		lost = append(lost, s.Lost)
	}
	ds.RecordEchoSized(dataset.PairKey{Src: res.Src, Dst: res.Dst}, res.At, rtts, lost, res.ASPath, keep, expect)
}

// meanRTT is the mean of the samples that were not lost.
func meanRTT(samples []probe.Sample) (float64, bool) {
	sum, n := 0.0, 0
	for _, s := range samples {
		if !s.Lost {
			sum += s.RTTMs
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// mirrorMissing fills each unmeasured directed path with the samples of
// its measured reverse, implementing UW1's use of opposite-direction
// traceroutes for rate-limited targets.
func mirrorMissing(ds *dataset.Dataset) {
	for _, k := range ds.PairKeys() {
		rev := k.Reverse()
		if _, ok := ds.Paths[rev]; ok {
			continue
		}
		src := ds.Paths[k]
		// The mirror shares the measured direction's echo records,
		// capacity-capped so that neither path's appends reach the other.
		cp := &dataset.PathData{Key: rev, Measurements: src.Measurements, Echo: src.Echo.Clip()}
		// The AS path of the mirror is unknown (the reverse direction
		// was never traced); leave it nil.
		ds.Paths[rev] = cp
	}
}
