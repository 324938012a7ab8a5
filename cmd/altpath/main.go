// Command altpath runs the paper's alternate-path analysis over a
// dataset: for every measured host pair it finds the best synthetic
// alternate path for the chosen metric and reports the improvement CDF,
// the 95% confidence verdict table, and an ASCII plot.
//
// Usage:
//
//	altpath [-metric rtt|loss|prop|bw] [-maxvia N] [-k N] [-workers N] [-plot] [-episodes] dataset.snap
//	altpath -suite UW3 [-preset quick|full|scale] [-seed N] [-metric ...]
//
// The first form loads a dataset file saved by pathsim; the second builds
// the named Table 1 dataset (UW1, UW3, UW4-A, UW4-B, D2, D2-NA, N2,
// N2-NA) on the fly through the experiments suite, so any paper dataset
// can be analyzed under any seed without an intermediate file. The bw
// metric needs a dataset with TCP transfer measurements (pathsim
// -method transfer, or the N2 suite datasets); -episodes needs one
// collected with the episodes scheduler (UW4-A).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pathsel/internal/core"
	"pathsel/internal/dataset"
	"pathsel/internal/experiments"
	"pathsel/internal/pathset"
	"pathsel/internal/report"
	"pathsel/internal/snapshot"
	"pathsel/internal/stats"
	"pathsel/internal/tcpmodel"
)

func main() {
	metricStr := flag.String("metric", "rtt", "metric: rtt, loss, prop or bw")
	maxVia := flag.Int("maxvia", 0, "max intermediate hosts per alternate (0 = unlimited)")
	k := flag.Int("k", 1, "alternate paths per pair; >1 adds the path-set report")
	workers := flag.Int("workers", 0, "analysis worker goroutines (0 = one per CPU, 1 = sequential)")
	plot := flag.Bool("plot", false, "draw an ASCII CDF")
	episodes := flag.Bool("episodes", false, "run the simultaneous-episode analysis instead")
	suiteName := flag.String("suite", "", "build this Table 1 dataset instead of loading a file: "+strings.Join(experiments.DatasetNames(), ", "))
	preset := flag.String("preset", "quick", "campaign scale for -suite: quick, full or scale")
	seed := flag.Int64("seed", 1, "suite seed for -suite")
	flag.Parse()
	if (*suiteName == "") == (flag.NArg() != 1) {
		fmt.Fprintln(os.Stderr, "usage: altpath [-metric rtt|loss|prop|bw] [-maxvia N] [-k N] [-workers N] [-plot] [-episodes] (dataset.snap | -suite NAME [-preset quick|full|scale] [-seed N])")
		os.Exit(2)
	}
	ds, err := loadDataset(*suiteName, *preset, *seed, *workers, flag.Arg(0))
	if err == nil {
		err = run(ds, *metricStr, *maxVia, *k, *workers, *plot, *episodes)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "altpath:", err)
		os.Exit(1)
	}
}

// loadDataset resolves the dataset from either a saved file or a named
// suite dataset built on demand.
func loadDataset(suiteName, preset string, seed int64, workers int, path string) (*dataset.Dataset, error) {
	if suiteName == "" {
		return snapshot.ReadDataset(path)
	}
	cfg := experiments.Config{Seed: seed, Concurrency: workers}
	var err error
	if cfg.Preset, err = experiments.ParsePreset(preset); err != nil {
		return nil, err
	}
	fmt.Printf("building %s suite (seed %d)...\n", cfg.Preset, cfg.Seed)
	s, err := experiments.Build(cfg)
	if err != nil {
		return nil, err
	}
	ds, ok := s.Dataset(suiteName)
	if !ok {
		return nil, fmt.Errorf("unknown suite dataset %q (want one of %s)", suiteName, strings.Join(experiments.DatasetNames(), ", "))
	}
	return ds, nil
}

func run(ds *dataset.Dataset, metricStr string, maxVia, k, workers int, plot, episodes bool) error {
	c := ds.Characteristics()
	fmt.Printf("dataset %s: %d hosts, %d measurements, %.0f%% coverage\n",
		c.Name, c.Hosts, c.Measurements, c.PercentCovered)
	analyzer := core.NewAnalyzer(ds).WithConcurrency(workers)

	if episodes {
		return runEpisodes(analyzer)
	}
	if metricStr == "bw" {
		return runBandwidth(analyzer)
	}

	var metric core.Metric
	switch metricStr {
	case "rtt":
		metric = core.MetricRTT
	case "loss":
		metric = core.MetricLoss
	case "prop":
		metric = core.MetricPropDelay
	default:
		return fmt.Errorf("unknown metric %q", metricStr)
	}
	rs, err := analyzer.Query(core.QuerySpec{Metric: metric, MaxVia: maxVia, K: k, Annotate: k > 1})
	if err != nil {
		return err
	}
	results := rs.PairResults()
	if len(results) == 0 {
		return fmt.Errorf("no comparable pairs in dataset")
	}
	cdf := core.ImprovementCDF(results)
	fmt.Printf("\n%s improvement (default - best alternate): %s\n", metric, report.CDFSummary(cdf))

	verdicts := core.ClassifyVerdicts(results, 0.95)
	b, i, w, z := verdicts.Percent()
	fmt.Printf("at 95%% confidence: better %.0f%%, indeterminate %.0f%%, worse %.0f%%", b, i, w)
	if verdicts.BothZero > 0 {
		fmt.Printf(", both zero %.0f%%", z)
	}
	fmt.Println()

	// The five best wins, with their relay hosts.
	top := results
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].Improvement() > top[i].Improvement() {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	n := 5
	if n > len(top) {
		n = len(top)
	}
	fmt.Println("\nlargest improvements:")
	for _, r := range top[:n] {
		fmt.Printf("  %v: %.3g -> %.3g via %v\n", r.Key, r.DefaultValue, r.AltValue, r.Via)
	}

	if k > 1 {
		reportPathSets(rs)
	}

	if plot {
		lo, _ := cdf.Quantile(0.02)
		hi, _ := cdf.Quantile(0.98)
		if hi > lo {
			fmt.Println()
			fmt.Print(report.AsciiCDF(cdf, lo, hi, 12, 64))
		}
	}
	return nil
}

// reportPathSets summarizes a k>1 query: how the best-of-k improvement
// grows with k, and how AS-disjoint from the default the sets get.
func reportPathSets(rs core.ResultSet) {
	k := rs.Spec.K
	fmt.Printf("\npath sets (k=%d):\n", k)
	for n := 1; n <= k; n++ {
		var acc stats.Accum
		covered := 0
		for _, p := range rs.Pairs {
			set := p.Alternates
			if set.Len() > n {
				set.Paths = set.Paths[:n]
			}
			bestN := p.Default.Value
			for _, alt := range set.Paths {
				if alt.Value < bestN {
					bestN = alt.Value
				}
			}
			acc.Add(p.Default.Value - bestN)
			if set.MaxDisjointness(pathset.LevelAS, p.Default) >= 1 {
				covered++
			}
		}
		fmt.Printf("  best of %d: mean improvement %.3g, AS-disjoint alternate for %.0f%% of pairs\n",
			n, acc.Mean(), 100*float64(covered)/float64(len(rs.Pairs)))
	}
}

// runBandwidth runs the one-hop Mathis-model bandwidth comparison under
// both loss-composition modes.
func runBandwidth(analyzer *core.Analyzer) error {
	model := tcpmodel.Default()
	for _, mode := range []core.BandwidthMode{core.Pessimistic, core.Optimistic} {
		rs, err := analyzer.Query(core.QuerySpec{Bandwidth: &core.BandwidthQuery{Model: model, Mode: mode}})
		if err != nil {
			return err
		}
		results := rs.BandwidthResults()
		if len(results) == 0 {
			return fmt.Errorf("no transfer measurements in dataset (collect with -method transfer)")
		}
		vals := make([]float64, len(results))
		better := 0
		for i, r := range results {
			vals[i] = r.Improvement()
			if r.Improvement() > 0 {
				better++
			}
		}
		cdf := stats.NewCDF(vals)
		fmt.Printf("\nbandwidth improvement, %s composition: %s\n", mode, report.CDFSummary(cdf))
		fmt.Printf("  %d of %d pairs have a better-bandwidth relay (%.0f%%)\n",
			better, len(results), 100*float64(better)/float64(len(results)))
	}
	return nil
}

// runEpisodes runs the simultaneous-measurement analysis.
func runEpisodes(analyzer *core.Analyzer) error {
	res, err := analyzer.AnalyzeEpisodes()
	if err != nil {
		return err
	}
	pa := stats.NewCDF(res.PairAveraged)
	raw := stats.NewCDF(res.Unaveraged)
	fmt.Printf("\npair-averaged episode improvement: %s\n", report.CDFSummary(pa))
	fmt.Printf("unaveraged episode improvement:    %s\n", report.CDFSummary(raw))
	if len(res.RelayChurn) > 0 {
		sum := 0.0
		for _, c := range res.RelayChurn {
			sum += c
		}
		fmt.Printf("best-relay churn between consecutive episodes: %.0f%% mean\n",
			100*sum/float64(len(res.RelayChurn)))
	}
	return nil
}
