// Package bench contains the benchmark harness that regenerates every
// table and figure of the paper's evaluation (run with `go test -bench .`),
// plus ablation benchmarks for the design choices called out in
// DESIGN.md. Each BenchmarkTableN / BenchmarkFigureN times the complete
// analysis behind that exhibit on a shared suite of datasets; the suite
// itself (topology generation, route convergence, and all eight
// measurement campaigns) is timed once in BenchmarkSuiteBuild.
package bench

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"pathsel/internal/core"
	"pathsel/internal/experiments"
	"pathsel/internal/forward"
	"pathsel/internal/measure"
	"pathsel/internal/netsim"
	"pathsel/internal/packetnet"
	"pathsel/internal/snapshot"
	"pathsel/internal/stats"
	"pathsel/internal/tcpmodel"
	"pathsel/internal/topology"
)

// presetSuites caches one built suite per campaign scale so the
// query-side benchmarks don't pay the build again per sub-benchmark.
var presetSuites = map[experiments.Preset]*struct {
	once sync.Once
	s    *experiments.Suite
	err  error
}{
	experiments.Quick: {},
	experiments.Full:  {},
	experiments.Scale: {},
}

func benchSuitePreset(b *testing.B, p experiments.Preset) *experiments.Suite {
	b.Helper()
	c := presetSuites[p]
	c.once.Do(func() {
		c.s, c.err = experiments.Build(experiments.Config{Seed: 1, Preset: p})
	})
	if c.err != nil {
		b.Fatalf("Build(%v): %v", p, c.err)
	}
	return c.s
}

func benchSuite(b *testing.B) *experiments.Suite {
	return benchSuitePreset(b, experiments.Quick)
}

// BenchmarkSuiteBuild times the full pipeline that feeds every other
// benchmark: topology + IGP + BGP + congestion model + all campaigns.
func BenchmarkSuiteBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Build(experiments.Config{Seed: 1, Preset: experiments.Quick})
		if err != nil {
			b.Fatal(err)
		}
		if len(s.UW3.Paths) == 0 {
			b.Fatal("empty UW3")
		}
	}
}

// BenchmarkSuiteBuildPreset times the same pipeline at every campaign
// scale — quick, full and the 10k-AS / 100k-host scale preset — and
// reports the substrate size next to the timing, so the committed
// baseline (BENCH_6.json) tracks the build curve from laptop to planet
// scale. BenchmarkSuiteBuild above stays the historical quick-preset
// reference point.
func BenchmarkSuiteBuildPreset(b *testing.B) {
	for _, preset := range []experiments.Preset{experiments.Quick, experiments.Full, experiments.Scale} {
		b.Run(preset.String(), func(b *testing.B) {
			b.ReportAllocs()
			var st topology.Stats
			for i := 0; i < b.N; i++ {
				s, err := experiments.Build(experiments.Config{Seed: 1, Preset: preset})
				if err != nil {
					b.Fatal(err)
				}
				if len(s.UW3.Paths) == 0 {
					b.Fatal("empty UW3")
				}
				st = s.TopoUW.Stats()
			}
			b.ReportMetric(float64(st.ASes), "ases")
			b.ReportMetric(float64(st.Hosts), "hosts")
			b.ReportMetric(float64(st.Links), "links")
		})
	}
}

// BenchmarkBestAlternatesPreset times the headline alternate-path query
// (unrestricted RTT search over UW3) at every campaign scale, reporting
// measured-pair throughput. This is the query half of the build/query
// curve in BENCH_6.json.
func BenchmarkBestAlternatesPreset(b *testing.B) {
	for _, preset := range []experiments.Preset{experiments.Quick, experiments.Full, experiments.Scale} {
		b.Run(preset.String(), func(b *testing.B) {
			s := benchSuitePreset(b, preset)
			a := core.NewAnalyzer(s.UW3)
			b.ResetTimer()
			var pairs int
			for i := 0; i < b.N; i++ {
				rs, err := a.Query(core.QuerySpec{Metric: core.MetricRTT})
				if err != nil {
					b.Fatal(err)
				}
				results := rs.PairResults()
				if len(results) == 0 {
					b.Fatal("no results")
				}
				pairs = len(results)
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

// BenchmarkQueryK times the unified Query API at increasing path-set
// sizes on the quick-preset UW3 dataset. k=1 routes through the
// single-alternate batch engine; k>1 pays the Yen spur searches, so
// the curve shows the marginal cost per extra alternate.
func BenchmarkQueryK(b *testing.B) {
	s := benchSuite(b)
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			a := core.NewAnalyzer(s.UW3)
			b.ResetTimer()
			var pairs int
			for i := 0; i < b.N; i++ {
				rs, err := a.Query(core.QuerySpec{Metric: core.MetricRTT, K: k})
				if err != nil {
					b.Fatal(err)
				}
				if len(rs.Pairs) == 0 {
					b.Fatal("no results")
				}
				pairs = len(rs.Pairs)
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

// BenchmarkMultipathExhibit times the end-to-end multipath analysis:
// one k-set query plus disjointness scoring and strategy selection.
func BenchmarkMultipathExhibit(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Multipath(s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkPacketTransfer times one 30-second bulk TCP transfer on the
// packet-level data plane: event loop, link scheduler, and Reno
// endpoints included.
func BenchmarkPacketTransfer(b *testing.B) {
	s := benchSuite(b)
	fwd, ns := s.D2Forwarding()
	src := s.TopoD2.Hosts[0].ID
	dst := s.TopoD2.Hosts[1].ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := packetnet.New(s.TopoD2, ns, forward.NewCache(fwd), packetnet.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		st, err := n.Transfer(src, dst, 0, 30)
		if err != nil {
			b.Fatal(err)
		}
		if st.Delivered == 0 {
			b.Fatal("no bytes delivered")
		}
	}
}

// BenchmarkPacketValidationExhibit times the full packet-level
// validation: a packet network, a rounds simulation, and a Mathis
// evaluation per sampled N2 pair.
func BenchmarkPacketValidationExhibit(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ValidatePacketLevel(s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(s)
		if len(rows) != 8 {
			b.Fatal("bad row count")
		}
	}
}

func benchSeries(b *testing.B, fn func(*experiments.Suite) ([]experiments.Series, error)) {
	b.Helper()
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := fn(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) == 0 {
			b.Fatal("no series")
		}
	}
}

func BenchmarkFigure1(b *testing.B)  { benchSeries(b, experiments.Figure1) }
func BenchmarkFigure2(b *testing.B)  { benchSeries(b, experiments.Figure2) }
func BenchmarkFigure3(b *testing.B)  { benchSeries(b, experiments.Figure3) }
func BenchmarkFigure4(b *testing.B)  { benchSeries(b, experiments.Figure4) }
func BenchmarkFigure5(b *testing.B)  { benchSeries(b, experiments.Figure5) }
func BenchmarkFigure6(b *testing.B)  { benchSeries(b, experiments.Figure6) }
func BenchmarkFigure9(b *testing.B)  { benchSeries(b, experiments.Figure9) }
func BenchmarkFigure10(b *testing.B) { benchSeries(b, experiments.Figure10) }
func BenchmarkFigure11(b *testing.B) { benchSeries(b, experiments.Figure11) }
func BenchmarkFigure15(b *testing.B) { benchSeries(b, experiments.Figure15) }

func BenchmarkFigure7(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure7(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure8(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Removed) == 0 {
			b.Fatal("nothing removed")
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := experiments.Figure13(s)
		if err != nil {
			b.Fatal(err)
		}
		if sr.CDF.N() == 0 {
			b.Fatal("empty CDF")
		}
	}
}

func BenchmarkFigure14(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts, err := experiments.Figure14(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(counts) == 0 {
			b.Fatal("no AS counts")
		}
	}
}

func BenchmarkFigure16(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decs, err := experiments.Figure16(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(decs) == 0 {
			b.Fatal("no decompositions")
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationLossComposition compares the two ways of composing
// loss along a synthetic path: maximum-of-hops (optimistic) versus
// independence (pessimistic).
func BenchmarkAblationLossComposition(b *testing.B) {
	s := benchSuite(b)
	model := tcpmodel.Default()
	for _, mode := range []core.BandwidthMode{core.Optimistic, core.Pessimistic} {
		b.Run(mode.String(), func(b *testing.B) {
			a := core.NewAnalyzer(s.N2)
			for i := 0; i < b.N; i++ {
				if _, err := a.Query(core.QuerySpec{Bandwidth: &core.BandwidthQuery{Model: model, Mode: mode}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHopLimit compares alternate-path search with one
// intermediate host (the paper's bandwidth restriction), a small bound,
// and unrestricted Dijkstra.
func BenchmarkAblationHopLimit(b *testing.B) {
	s := benchSuite(b)
	for _, bc := range []struct {
		name   string
		maxVia int
	}{{"one-hop", 1}, {"two-hop", 2}, {"unrestricted", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			a := core.NewAnalyzer(s.UW3)
			for i := 0; i < b.N; i++ {
				rs, err := a.Query(core.QuerySpec{Metric: core.MetricRTT, MaxVia: bc.maxVia})
				if err != nil {
					b.Fatal(err)
				}
				results := rs.PairResults()
				if len(results) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// BenchmarkAblationMedian compares the cheap mean-based comparison with
// the median-by-convolution robustness check of Section 6.1.
func BenchmarkAblationMedian(b *testing.B) {
	s := benchSuite(b)
	b.Run("mean", func(b *testing.B) {
		a := core.NewAnalyzer(s.D2NA)
		for i := 0; i < b.N; i++ {
			if _, err := a.Query(core.QuerySpec{Metric: core.MetricRTT, MaxVia: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("median-convolution", func(b *testing.B) {
		a := core.NewAnalyzer(s.D2NA)
		for i := 0; i < b.N; i++ {
			if _, err := a.BestMedianAlternates(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPropagationEstimator compares the paper's
// tenth-percentile propagation estimate against the raw minimum.
func BenchmarkAblationPropagationEstimator(b *testing.B) {
	s := benchSuite(b)
	keys := s.UW3.PairKeys()
	for _, bc := range []struct {
		name string
		q    float64
	}{{"minimum", 0}, {"p10", core.PropagationQuantile}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got := 0
				for _, k := range keys {
					if _, ok := s.UW3.PropagationDelay(k, bc.q); ok {
						got++
					}
				}
				if got == 0 {
					b.Fatal("no estimates")
				}
			}
		})
	}
}

// BenchmarkAblationScheduler compares the two probe schedulers the paper
// used (UW1's per-server uniform vs UW3's exponential pairs) on a short
// campaign over the already-built measurement plane.
func BenchmarkAblationScheduler(b *testing.B) {
	s := benchSuite(b)
	top, prober := s.UWPlane()
	var hosts []topology.HostID
	for _, h := range s.UW3.Hosts {
		hosts = append(hosts, h)
	}
	for _, bc := range []struct {
		name  string
		sched measure.Scheduler
	}{{"per-server-uniform", measure.PerServerUniform}, {"exponential-pairs", measure.ExponentialPairs}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := measure.Run(top, prober, measure.Spec{
					Name: "ablation", Hosts: hosts,
					Method: measure.MethodTraceroute, Scheduler: bc.sched,
					MeanIntervalSec: 600, DurationSec: 86400, Seed: 11,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(ds.Paths) == 0 {
					b.Fatal("empty campaign")
				}
			}
		})
	}
}

// --- Micro-benchmarks for the hot paths under everything above ---

func BenchmarkTopologyGenerate(b *testing.B) {
	cfg := topology.DefaultConfig(topology.Era1999)
	for i := 0; i < b.N; i++ {
		if _, err := topology.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProbeTraceroute(b *testing.B) {
	s := benchSuite(b)
	_, prober := s.UWPlane()
	src, dst := s.UW3.Hosts[0], s.UW3.Hosts[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prober.Traceroute(src, dst, netsim.Time(i%86400)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetAggregation(b *testing.B) {
	s := benchSuite(b)
	keys := s.UW3.PairKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc stats.Accum
		for _, k := range keys {
			if sum, ok := s.UW3.MeanRTT(k); ok {
				acc.Add(sum.Mean)
			}
		}
		if acc.N() == 0 {
			b.Fatal("no summaries")
		}
	}
}

func BenchmarkDatasetSaveLoad(b *testing.B) {
	s := benchSuite(b)
	dir := b.TempDir()
	path := dir + "/uw4b.snap"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snapshot.WriteDataset(path, s.UW4B); err != nil {
			b.Fatal(err)
		}
		if _, err := snapshot.ReadDataset(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProberEcho(b *testing.B) {
	s := benchSuite(b)
	_, prober := s.UWPlane()
	src, dst := s.UW3.Hosts[2], s.UW3.Hosts[3]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prober.Ping(src, dst, netsim.Time(i%86400)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension experiments (validation the paper could not run) ---

// BenchmarkValidationConservativity times the source-routing validation
// of the paper's conservativity claim (see EXPERIMENTS.md, Extensions).
func BenchmarkValidationConservativity(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ValidateConservativity(s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkAblationEgress times the hot-potato vs cold-potato routing
// comparison (two full mini-campaigns per iteration).
func BenchmarkAblationEgress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateEgress(experiments.Config{Seed: 1, Preset: experiments.Quick})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 2 {
			b.Fatal("bad result count")
		}
	}
}

// BenchmarkTriangulation times the IDMaps-style host-distance
// triangulation over UW3.
func BenchmarkTriangulation(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Triangulation(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkRouteDynamics times the failure-timeline construction and the
// Paxson-style route-dominance census over the UW topology.
func BenchmarkRouteDynamics(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := experiments.RouteDynamics(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkPathInflation times the optimal-routing comparison: global
// router-level Dijkstra bounds versus default and alternate paths.
func BenchmarkPathInflation(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sum, err := experiments.PathInflation(s)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkTCPModelValidation times the Mathis-versus-simulated-Reno
// comparison over the N2 dataset.
func BenchmarkTCPModelValidation(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ValidateTCPModel(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkCauseAblation times the six-variant mechanism decomposition.
func BenchmarkCauseAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CauseAblation(experiments.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != 6 {
			b.Fatal("bad variant count")
		}
	}
}

// BenchmarkSeedSensitivity times the cross-seed robustness check.
func BenchmarkSeedSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fracs, err := experiments.SeedSensitivity(1, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(fracs) != 3 {
			b.Fatal("bad seed count")
		}
	}
}

// BenchmarkOverlayExhibit times the online overlay controller replayed
// against a failing, reconverging network at three probing budgets.
func BenchmarkOverlayExhibit(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Overlay(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Budgets) != 3 {
			b.Fatal("bad budget count")
		}
	}
}

// --- Snapshot codec and serve warm start ---

// BenchmarkSnapshotEncode times serializing a built suite's campaign
// datasets to the canonical snapshot format, reporting the payload
// size.
func BenchmarkSnapshotEncode(b *testing.B) {
	for _, preset := range []experiments.Preset{experiments.Quick, experiments.Full} {
		b.Run(preset.String(), func(b *testing.B) {
			s := benchSuitePreset(b, preset)
			b.ResetTimer()
			var size int
			for i := 0; i < b.N; i++ {
				buf, err := snapshot.Encode(s)
				if err != nil {
					b.Fatal(err)
				}
				size = len(buf)
			}
			b.ReportMetric(float64(size), "bytes")
		})
	}
}

// BenchmarkSnapshotDecode times the codec half of a warm start:
// checksum verification and dataset reconstruction, without the
// substrate regeneration that Restore adds on top. Throughput is
// snapshot bytes per second.
func BenchmarkSnapshotDecode(b *testing.B) {
	for _, preset := range []experiments.Preset{experiments.Quick, experiments.Full} {
		b.Run(preset.String(), func(b *testing.B) {
			data, err := snapshot.Encode(benchSuitePreset(b, preset))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, ds, err := snapshot.Decode(data)
				if err != nil {
					b.Fatal(err)
				}
				if len(ds) != len(experiments.PrimaryDatasetNames()) {
					b.Fatal("missing datasets")
				}
			}
		})
	}
}

// BenchmarkServeWarmStart times the complete snapshot warm path a serve
// worker takes on a cache miss with a snapshot present: decode the
// campaign datasets and regenerate the measurement substrate. Compare
// against BenchmarkSuiteBuildPreset at the same preset — the cold
// rebuild this path replaces — for the warm/cold ratio.
func BenchmarkServeWarmStart(b *testing.B) {
	for _, preset := range []experiments.Preset{experiments.Quick, experiments.Full} {
		b.Run(preset.String(), func(b *testing.B) {
			data, err := snapshot.Encode(benchSuitePreset(b, preset))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := snapshot.Restore(context.Background(), data, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(s.UW3.Paths) == 0 {
					b.Fatal("empty UW3")
				}
			}
		})
	}
}

// BenchmarkSnapshotLoad times the path a serve worker actually takes
// on a snapshot hit: read the file from disk, then restore. Against
// BenchmarkServeWarmStart it shows the cost of the read itself.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, preset := range []experiments.Preset{experiments.Quick, experiments.Full} {
		b.Run(preset.String(), func(b *testing.B) {
			dir := b.TempDir()
			path, err := snapshot.Write(dir, benchSuitePreset(b, preset))
			if err != nil {
				b.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			cfg := experiments.Config{Seed: 1, Preset: preset}
			b.SetBytes(fi.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := snapshot.Load(context.Background(), dir, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(s.UW3.Paths) == 0 {
					b.Fatal("empty UW3")
				}
			}
		})
	}
}
