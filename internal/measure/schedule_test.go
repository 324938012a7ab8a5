package measure

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/forward"
	"pathsel/internal/netsim"
	"pathsel/internal/probe"
	"pathsel/internal/topology"
)

// schedulerSpecs is one traceroute campaign per scheduler over the
// fixture's hosts.
func schedulerSpecs(fx *fixture) map[string]Spec {
	exp := baseSpec(fx)
	exp.DurationSec = 86400

	uniform := baseSpec(fx)
	uniform.Scheduler = PerServerUniform
	uniform.MeanIntervalSec = 900
	uniform.DurationSec = 2 * 86400
	uniform.RateLimit = FilterTargets

	episodes := baseSpec(fx)
	episodes.Scheduler = Episodes
	episodes.MeanIntervalSec = 3600
	episodes.DurationSec = 86400
	episodes.Hosts = episodes.Hosts[:8]

	sampled := baseSpec(fx)
	sampled.Scheduler = SampledPairs
	sampled.ClusterSize = 5 // the last of the three clusters is short
	sampled.MeanIntervalSec = 3600
	sampled.DurationSec = 86400

	return map[string]Spec{
		"exponential-pairs": exp, "per-server-uniform": uniform,
		"episodes": episodes, "sampled-pairs": sampled,
	}
}

// scheduledCounts is the counting pass of RunContext for spec.
func scheduledCounts(t *testing.T, top *topology.Topology, spec Spec) map[dataset.PairKey]int32 {
	t.Helper()
	c, err := newCampaign(top, spec)
	if err != nil {
		t.Fatal(err)
	}
	return countProbes(c.schedule(rand.New(rand.NewSource(spec.Seed))))
}

// newProber is a fresh prober over the fixture's plane.
func (fx *fixture) newProber(paths probe.PathProvider, mutate func(*probe.Config)) *probe.Prober {
	cfg := probe.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	if paths == nil {
		paths = forward.NewCache(fx.fwd)
	}
	return probe.NewWithProvider(fx.top, paths, fx.net, cfg)
}

// TestCountingPassMatchesProbes: for every scheduler, the counting
// pass's per-pair counts are exactly the traceroutes the probing pass
// sends, failed ones included.
func TestCountingPassMatchesProbes(t *testing.T) {
	fx := newFixture(t)
	for name, spec := range schedulerSpecs(fx) {
		t.Run(name, func(t *testing.T) {
			want := scheduledCounts(t, fx.top, spec)
			sent := map[dataset.PairKey]int32{}
			spec.Observer = func(res probe.Result) { sent[dataset.PairKey{Src: res.Src, Dst: res.Dst}]++ }
			if _, err := Run(fx.top, fx.newProber(nil, nil), spec); err != nil {
				t.Fatal(err)
			}
			if len(sent) == 0 {
				t.Fatal("no probes sent")
			}
			if !reflect.DeepEqual(sent, want) {
				t.Fatalf("probes sent per pair differ from the counting pass:\nsent    %v\ncounted %v", sent, want)
			}
		})
	}
}

// TestSampleStorageNeverGrows: with every contact succeeding, each
// pair's storage is allocated once at its final size: one echo record
// per traceroute, every kept loss outcome, and room for every attempt's
// round trip.
func TestSampleStorageNeverGrows(t *testing.T) {
	fx := newFixture(t)
	specs := schedulerSpecs(fx)
	d2 := specs["exponential-pairs"]
	d2.KeepSamples = 1 // the D2 first-sample heuristic
	specs["keep-one"] = d2
	transfer := specs["exponential-pairs"]
	transfer.Method = MethodTransfer
	specs["transfer"] = transfer
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			prb := fx.newProber(nil, func(c *probe.Config) { c.ContactFailProb = 0 })
			ds, err := Run(fx.top, prb, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(ds.Paths) == 0 {
				t.Fatal("no paths measured")
			}
			for _, k := range ds.PairKeys() {
				p := ds.Paths[k]
				e := p.Echo
				if cap(e.At) != len(e.At) || cap(e.Counts) != len(e.Counts) {
					t.Errorf("%v: records len %d/%d cap %d/%d, want cap == len", k,
						len(e.At), len(e.Counts), cap(e.At), cap(e.Counts))
				}
				if spec.Method != MethodTransfer && len(e.At) != p.Measurements {
					t.Errorf("%v: %d echo records for %d traceroutes", k, len(e.At), p.Measurements)
				}
				if cap(e.Lost) != len(e.Lost) {
					t.Errorf("%v: Lost len %d cap %d, want cap == len", k, len(e.Lost), cap(e.Lost))
				}
				if max := p.Measurements * probe.SamplesPerTraceroute; cap(e.RTTMs) > max {
					t.Errorf("%v: RTT cap %d exceeds %d measurements × %d samples", k, cap(e.RTTMs),
						p.Measurements, probe.SamplesPerTraceroute)
				}
				if cap(p.Transfers) != len(p.Transfers) {
					t.Errorf("%v: Transfers len %d cap %d, want cap == len", k, len(p.Transfers), cap(p.Transfers))
				}
			}
		})
	}
}

var errNoRoute = errors.New("no route")

// brokenPaths is a static path provider without a route for one
// ordered pair, or for every pair during [from, to).
type brokenPaths struct {
	*forward.Cache
	src, dst topology.HostID
	from, to netsim.Time
}

func (b brokenPaths) PathAt(src, dst topology.HostID, at netsim.Time) (forward.Path, error) {
	if (src == b.src && dst == b.dst) || (at >= b.from && at < b.to) {
		return forward.Path{}, errNoRoute
	}
	return b.Cache.PathAt(src, dst, at)
}

// TestFailedPairAbsent: a pair whose every probe fails leaves no entry
// in Paths, though the counting pass sized storage for it.
func TestFailedPairAbsent(t *testing.T) {
	fx := newFixture(t)
	spec := schedulerSpecs(fx)["exponential-pairs"]
	src, dst := spec.Hosts[0], spec.Hosts[1]
	counts := scheduledCounts(t, fx.top, spec)
	if counts[dataset.PairKey{Src: src, Dst: dst}] == 0 {
		t.Fatalf("the schedule never probes %d->%d; pick another pair", src, dst)
	}
	// A traceroute needs both directions' routes, so both directions of
	// the broken pair fail.
	paths := brokenPaths{Cache: forward.NewCache(fx.fwd), src: src, dst: dst}
	ds, err := Run(fx.top, fx.newProber(paths, nil), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []dataset.PairKey{{Src: src, Dst: dst}, {Src: dst, Dst: src}} {
		if _, ok := ds.Paths[k]; ok {
			t.Errorf("pair %v with only failed probes is in Paths", k)
		}
	}
	if len(ds.Paths) < len(counts)-2 {
		t.Errorf("%d pairs measured, want %d", len(ds.Paths), len(counts)-2)
	}
}

// referenceEpisodes is the Episodes campaign as a plain loop, the shape
// it had before schedules were generated: every round draws its start,
// probes every ordered pair 1.5 s apart, and appends one Episode.
func referenceEpisodes(prb *probe.Prober, spec Spec, hosts []topology.HostID, keep int) (*dataset.Dataset, error) {
	ds := dataset.New(spec.Name, hosts)
	rng := rand.New(rand.NewSource(spec.Seed))
	end := spec.StartSec + spec.DurationSec
	at := spec.StartSec
	for {
		at += rng.ExpFloat64() * spec.MeanIntervalSec
		if at >= end {
			return ds, nil
		}
		ep := &dataset.Episode{At: netsim.Time(at), RTTMs: map[dataset.PairKey]float64{}}
		offset := 0.0
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				t := netsim.Time(at + offset)
				offset += 1.5
				res, err := prb.Traceroute(src, dst, t)
				if err != nil {
					return nil, err
				}
				if res.Failed {
					continue
				}
				var rtts []float64
				var lost []bool
				sum, n := 0.0, 0
				for _, s := range res.Samples {
					rtts = append(rtts, s.RTTMs)
					lost = append(lost, s.Lost)
					if !s.Lost {
						sum += s.RTTMs
						n++
					}
				}
				ds.RecordEcho(dataset.PairKey{Src: src, Dst: dst}, res.At, rtts, lost, res.ASPath, keep)
				if n > 0 {
					ep.RTTMs[dataset.PairKey{Src: src, Dst: dst}] = sum / float64(n)
				}
			}
		}
		ds.AddEpisode(ep)
	}
}

// TestEpisodesMatchReferenceLoop: the generated Episodes schedule
// records the same episodes, empty ones included, and the same paths as
// the plain loop.
func TestEpisodesMatchReferenceLoop(t *testing.T) {
	fx := newFixture(t)
	spec := schedulerSpecs(fx)["episodes"]
	// Half a day without any route empties the episodes inside it.
	paths := func() brokenPaths {
		return brokenPaths{Cache: forward.NewCache(fx.fwd), src: -1, dst: -1, from: 30000, to: 30000 + 43200}
	}
	got, err := Run(fx.top, fx.newProber(paths(), nil), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceEpisodes(fx.newProber(paths(), nil), spec, spec.Hosts, probe.SamplesPerTraceroute)
	if err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, ep := range want.Episodes {
		if len(ep.RTTMs) == 0 {
			empty++
		}
	}
	if empty == 0 || empty == len(want.Episodes) {
		t.Fatalf("%d of %d reference episodes empty; want some of each", empty, len(want.Episodes))
	}
	if len(got.Episodes) != len(want.Episodes) {
		t.Fatalf("%d episodes, reference has %d", len(got.Episodes), len(want.Episodes))
	}
	for i := range want.Episodes {
		if !reflect.DeepEqual(got.Episodes[i], want.Episodes[i]) {
			t.Fatalf("episode %d differs:\ngot  %+v\nwant %+v", i, got.Episodes[i], want.Episodes[i])
		}
	}
	if !reflect.DeepEqual(got.Paths, want.Paths) {
		t.Fatal("paths differ from the reference loop's")
	}
}

// TestCampaignAllocationBound holds a seeded campaign of quick-preset
// size (~5,100 traceroutes over 12 hosts; the quick UW3 campaign sends
// ~9,300 over 16) under an allocation budget. The campaign keeps 96 B of
// samples per traceroute and allocates ~115 B in all. Allocating each
// traceroute's samples costs ~48 B more per traceroute, and appending
// the samples into growing slices ~125 B more; either breaks the budget.
func TestCampaignAllocationBound(t *testing.T) {
	fx := newFixture(t)
	spec := baseSpec(fx)
	spec.DurationSec = 8 * 86400
	// Warm the path and AS-path caches, which a campaign shares with
	// every other campaign over the same prober.
	prb := fx.newProber(nil, nil)
	if _, err := Run(fx.top, prb, spec); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ds, err := Run(fx.top, prb, spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	probes := ds.Characteristics().Measurements
	perProbe := float64(after.TotalAlloc-before.TotalAlloc) / float64(probes)
	t.Logf("%d traceroutes, %.0f B allocated per traceroute", probes, perProbe)
	if probes < 2000 {
		t.Fatalf("only %d traceroutes; the campaign is too small to bound", probes)
	}
	if perProbe > allocBudgetPerProbe {
		t.Errorf("campaign allocates %.0f B per traceroute, budget %d", perProbe, allocBudgetPerProbe)
	}
}

// allocBudgetPerProbe leaves ~20% headroom over the measured cost.
const allocBudgetPerProbe = 140
