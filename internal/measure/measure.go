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
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))

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

	ds := dataset.New(spec.Name, hosts)
	keep := spec.KeepSamples
	if keep <= 0 {
		keep = probe.SamplesPerTraceroute
	}

	var err error
	switch spec.Scheduler {
	case PerServerUniform:
		err = runPerServer(ctx, ds, top, prb, spec, rng, hosts, targets, keep)
	case ExponentialPairs:
		err = runExponentialPairs(ctx, ds, prb, spec, rng, hosts, targets, keep)
	case Episodes:
		err = runEpisodes(ctx, ds, prb, spec, rng, hosts, keep)
	case SampledPairs:
		err = runSampledPairs(ctx, ds, prb, spec, rng, hosts, keep)
	default:
		err = fmt.Errorf("measure: %s: unknown scheduler %v", spec.Name, spec.Scheduler)
	}
	if err != nil {
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

func filterRateLimited(top *topology.Topology, hosts []topology.HostID) []topology.HostID {
	var out []topology.HostID
	for _, h := range hosts {
		if !top.Host(h).RateLimitICMP {
			out = append(out, h)
		}
	}
	return out
}

// recordResult stores a traceroute result in the dataset.
func recordResult(ds *dataset.Dataset, res probe.Result, keep int) {
	if res.Failed {
		return
	}
	// A traceroute's samples fit the stack buffers; RecordEcho copies
	// what it keeps.
	var rttBuf [probe.SamplesPerTraceroute]float64
	var lostBuf [probe.SamplesPerTraceroute]bool
	rtts, lost := rttBuf[:0], lostBuf[:0]
	for _, s := range res.Samples {
		rtts = append(rtts, s.RTTMs)
		lost = append(lost, s.Lost)
	}
	ds.RecordEcho(dataset.PairKey{Src: res.Src, Dst: res.Dst}, res.At, rtts, lost, res.ASPath, keep)
}

func runPerServer(ctx context.Context, ds *dataset.Dataset, top *topology.Topology, prb *probe.Prober, spec Spec,
	rng *rand.Rand, hosts, targets []topology.HostID, keep int) error {
	end := spec.StartSec + spec.DurationSec
	// Each server has its own clock; we interleave by always advancing
	// the earliest one, keeping the global measurement order
	// chronological (and deterministic).
	clocks := make([]float64, len(hosts))
	for i := range clocks {
		clocks[i] = spec.StartSec + rng.Float64()*2*spec.MeanIntervalSec
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Find the earliest server clock.
		srcIdx, at := -1, end
		for i, c := range clocks {
			if c < at {
				srcIdx, at = i, c
			}
		}
		if srcIdx == -1 {
			return nil
		}
		clocks[srcIdx] += rng.Float64() * 2 * spec.MeanIntervalSec
		src := hosts[srcIdx]
		dst := targets[rng.Intn(len(targets))]
		if dst == src {
			continue
		}
		res, err := prb.Traceroute(src, dst, netsim.Time(at))
		if err != nil {
			return fmt.Errorf("measure: %s: %w", spec.Name, err)
		}
		if spec.Observer != nil {
			spec.Observer(res)
		}
		recordResult(ds, res, keep)
	}
}

func runExponentialPairs(ctx context.Context, ds *dataset.Dataset, prb *probe.Prober, spec Spec,
	rng *rand.Rand, hosts, targets []topology.HostID, keep int) error {
	end := spec.StartSec + spec.DurationSec
	at := spec.StartSec
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		at += rng.ExpFloat64() * spec.MeanIntervalSec
		if at >= end {
			return nil
		}
		src := hosts[rng.Intn(len(hosts))]
		dst := targets[rng.Intn(len(targets))]
		if src == dst {
			continue
		}
		switch spec.Method {
		case MethodTraceroute:
			res, err := prb.Traceroute(src, dst, netsim.Time(at))
			if err != nil {
				return fmt.Errorf("measure: %s: %w", spec.Name, err)
			}
			if spec.Observer != nil {
				spec.Observer(res)
			}
			recordResult(ds, res, keep)
		case MethodTransfer:
			res, err := prb.Transfer(src, dst, netsim.Time(at))
			if err != nil {
				return fmt.Errorf("measure: %s: %w", spec.Name, err)
			}
			if !res.Failed {
				ds.RecordTransfer(dataset.PairKey{Src: src, Dst: dst}, dataset.TransferSample{
					At: res.At, MeanRTTMs: res.MeanRTTMs, LossRate: res.LossRate, Packets: res.Packets,
				})
			}
		}
	}
}

func runEpisodes(ctx context.Context, ds *dataset.Dataset, prb *probe.Prober, spec Spec,
	rng *rand.Rand, hosts []topology.HostID, keep int) error {
	end := spec.StartSec + spec.DurationSec
	at := spec.StartSec
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		at += rng.ExpFloat64() * spec.MeanIntervalSec
		if at >= end {
			return nil
		}
		ep := &dataset.Episode{At: netsim.Time(at), RTTMs: map[dataset.PairKey]float64{}}
		// Every ordered pair, measured within a several-minute window
		// (each traceroute takes nonzero time, as the paper notes).
		offset := 0.0
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				t := netsim.Time(at + offset)
				offset += 1.5 // staggered requests within the episode
				res, err := prb.Traceroute(src, dst, t)
				if err != nil {
					return fmt.Errorf("measure: %s: %w", spec.Name, err)
				}
				if spec.Observer != nil {
					spec.Observer(res)
				}
				recordResult(ds, res, keep)
				if res.Failed {
					continue
				}
				sum, n := 0.0, 0
				for _, s := range res.Samples {
					if !s.Lost {
						sum += s.RTTMs
						n++
					}
				}
				if n > 0 {
					ep.RTTMs[dataset.PairKey{Src: src, Dst: dst}] = sum / float64(n)
				}
			}
		}
		ds.AddEpisode(ep)
	}
}

// runSampledPairs measures, at each exponentially spaced round, the full
// ordered mesh within every disjoint cluster of ClusterSize consecutive
// hosts. Probes are staggered in time within the round like an episode's
// (each traceroute takes nonzero real time).
func runSampledPairs(ctx context.Context, ds *dataset.Dataset, prb *probe.Prober, spec Spec,
	rng *rand.Rand, hosts []topology.HostID, keep int) error {
	end := spec.StartSec + spec.DurationSec
	at := spec.StartSec
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		at += rng.ExpFloat64() * spec.MeanIntervalSec
		if at >= end {
			return nil
		}
		offset := 0.0
		for base := 0; base < len(hosts); base += spec.ClusterSize {
			hi := base + spec.ClusterSize
			if hi > len(hosts) {
				hi = len(hosts)
			}
			cluster := hosts[base:hi]
			for _, src := range cluster {
				for _, dst := range cluster {
					if src == dst {
						continue
					}
					t := netsim.Time(at + offset)
					offset += 1.5
					res, err := prb.Traceroute(src, dst, t)
					if err != nil {
						return fmt.Errorf("measure: %s: %w", spec.Name, err)
					}
					if spec.Observer != nil {
						spec.Observer(res)
					}
					recordResult(ds, res, keep)
				}
			}
		}
	}
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
		cp := &dataset.PathData{Key: rev, Measurements: src.Measurements}
		cp.RTT = append(cp.RTT, src.RTT...)
		cp.Loss = append(cp.Loss, src.Loss...)
		// The AS path of the mirror is unknown (the reverse direction
		// was never traced); leave it nil.
		ds.Paths[rev] = cp
	}
}
