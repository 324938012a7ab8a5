// Command figures regenerates every table and figure of the paper's
// evaluation on the synthetic Internet: it builds the eight datasets of
// Table 1 and runs the alternate-path analysis behind Figures 1-16 and
// Tables 2-3, printing a text report and optionally dumping each CDF as
// tab-separated data for plotting.
//
// Usage:
//
//	figures [-preset quick|full|scale] [-seed N] [-workers N] [-out DIR]
//	        [-snapshot-dir DIR]
//
// Every data file, the extension exhibits' included, goes under -out;
// without -out the command only prints its report.
//
// With -snapshot-dir the built suite is also persisted as a binary
// snapshot (internal/snapshot), so a serve fleet started with the same
// -snapshot-dir warm-starts from this run's datasets instead of
// rebuilding them.
//
// The scale preset targets the substrate rather than the full exhibit
// catalogue: it prints the topology census, Table 1, the headline CDF
// figures (1, 2, 3, 15) and the confidence tables (2, 3), and skips the
// extension exhibits that rebuild auxiliary suites.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pathsel/internal/core"
	"pathsel/internal/experiments"
	"pathsel/internal/report"
	"pathsel/internal/snapshot"
	"pathsel/internal/stats"
)

func main() {
	preset := flag.String("preset", "full", "campaign scale: quick, full or scale")
	seed := flag.Int64("seed", 1, "master seed for topology, network and campaigns")
	workers := flag.Int("workers", 0, "analysis worker goroutines (0 = one per CPU, 1 = sequential)")
	out := flag.String("out", "", "directory for per-figure CDF data files (optional)")
	snapDir := flag.String("snapshot-dir", "", "also persist the built suite as a snapshot for serve warm starts")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Concurrency: *workers}
	var err error
	if cfg.Preset, err = experiments.ParsePreset(*preset); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	if err := run(cfg, *out, *snapDir); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// printTable1 prints the dataset-characteristics table.
func printTable1(s *experiments.Suite) error {
	fmt.Println("\n== Table 1: dataset characteristics ==")
	rows := [][]string{{"Dataset", "Hosts", "Measurements", "Paths covered"}}
	for _, c := range experiments.Table1(s) {
		rows = append(rows, []string{
			c.Name, fmt.Sprint(c.Hosts), fmt.Sprint(c.Measurements),
			fmt.Sprintf("%.0f%%", c.PercentCovered),
		})
	}
	return report.Table(os.Stdout, rows)
}

// printSeriesFigs runs and prints the registry's figures that keep
// selects, in order, dumping data files when outDir is set.
func printSeriesFigs(s *experiments.Suite, outDir string, keep func(experiments.Figure) bool) error {
	for _, fig := range experiments.Figures {
		if !keep(fig) {
			continue
		}
		id := fmt.Sprintf("figure%d", fig.N)
		series, err := fig.Series(s)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Printf("\n== %s ==\n", fig.Title)
		for _, sr := range series {
			fmt.Printf("  %-26s %s\n", sr.Name, report.CDFSummary(sr.CDF))
			if outDir != "" {
				if err := dumpSeries(outDir, id, sr); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// printVerdictTables prints Tables 2 and 3, the 95%-confidence verdict
// censuses for mean RTT and mean loss rate.
func printVerdictTables(s *experiments.Suite) error {
	for _, tab := range []struct {
		id    string
		title string
		fn    func(*experiments.Suite) ([]experiments.VerdictRow, error)
	}{
		{"table2", "Table 2: mean RTT at 95% confidence", experiments.Table2},
		{"table3", "Table 3: mean loss rate at 95% confidence", experiments.Table3},
	} {
		vrows, err := tab.fn(s)
		if err != nil {
			return fmt.Errorf("%s: %w", tab.id, err)
		}
		fmt.Printf("\n== %s ==\n", tab.title)
		trows := [][]string{{"Alternate is", "UW1", "UW3", "D2-NA", "D2"}}
		kinds := []string{"Better", "Indeterminate", "Worse", "Is zero"}
		for ki, kind := range kinds {
			row := []string{kind}
			for _, vr := range vrows {
				b, i, w, z := vr.Counts.Percent()
				v := []float64{b, i, w, z}[ki]
				row = append(row, fmt.Sprintf("%.0f%%", v))
			}
			trows = append(trows, row)
		}
		if err := report.Table(os.Stdout, trows); err != nil {
			return err
		}
	}
	return nil
}

// runScale is the scale preset's exhibit subset: topology census,
// Table 1, the headline CDFs, and the confidence tables. The extension
// exhibits that rebuild auxiliary suites (cause ablation, seed
// sensitivity, overlay, route dynamics) are deliberately skipped —
// they would multiply the planet-scale build many times over.
func runScale(s *experiments.Suite, outDir string) error {
	st := s.TopoUW.Stats()
	fmt.Printf("\n== Topology: %v ==\n", st)
	if err := printTable1(s); err != nil {
		return err
	}
	if err := printSeriesFigs(s, outDir, func(f experiments.Figure) bool { return f.Scale }); err != nil {
		return err
	}
	return printVerdictTables(s)
}

func run(cfg experiments.Config, outDir, snapDir string) error {
	fmt.Printf("building %s suite (seed %d)...\n", cfg.Preset, cfg.Seed)
	s, err := experiments.Build(cfg)
	if err != nil {
		return err
	}
	if snapDir != "" {
		if err := os.MkdirAll(snapDir, 0o755); err != nil {
			return err
		}
		path, err := snapshot.Write(snapDir, s)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		fmt.Printf("suite snapshot written to %s\n", path)
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	if cfg.Preset == experiments.Scale {
		return runScale(s, outDir)
	}

	if err := printTable1(s); err != nil {
		return err
	}

	// Figures the registry marks Detailed get their own sections below.
	if err := printSeriesFigs(s, outDir, func(f experiments.Figure) bool { return !f.Detailed }); err != nil {
		return err
	}

	for _, ci := range []struct {
		id string
		fn func(*experiments.Suite) ([]core.CIPoint, error)
	}{
		{"figure7", experiments.Figure7}, {"figure8", experiments.Figure8},
	} {
		id, fn := ci.id, ci.fn
		pts, err := fn(s)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		wide := 0
		for _, p := range pts {
			if p.HalfWidth > 0 {
				wide++
			}
		}
		fmt.Printf("\n== %s: %d pairs, %d with nonzero 95%% confidence half-widths ==\n", id, len(pts), wide)
		if outDir != "" {
			if err := dumpCIPoints(outDir, id, pts); err != nil {
				return err
			}
		}
	}

	if err := printVerdictTables(s); err != nil {
		return err
	}

	res12, err := experiments.Figure12(s)
	if err != nil {
		return fmt.Errorf("figure12: %w", err)
	}
	fmt.Println("\n== Figure 12: greedy removal of most influential hosts (UW3) ==")
	fmt.Printf("  %-26s %s\n", res12.All.Name, report.CDFSummary(res12.All.CDF))
	fmt.Printf("  %-26s %s\n", res12.Without.Name, report.CDFSummary(res12.Without.CDF))
	fmt.Print("  removed:")
	for _, st := range res12.Removed {
		fmt.Printf(" %d", st.Removed)
	}
	fmt.Println()
	if outDir != "" {
		if err := dumpSeries(outDir, "figure12", res12.All); err != nil {
			return err
		}
		if err := dumpSeries(outDir, "figure12", res12.Without); err != nil {
			return err
		}
	}

	sr13, err := experiments.Figure13(s)
	if err != nil {
		return fmt.Errorf("figure13: %w", err)
	}
	fmt.Println("\n== Figure 13: per-host normalized improvement contribution (UW3) ==")
	fmt.Printf("  %s\n", report.CDFSummary(sr13.CDF))
	if outDir != "" {
		if err := dumpSeries(outDir, "figure13", sr13); err != nil {
			return err
		}
	}

	counts14, err := experiments.Figure14(s)
	if err != nil {
		return fmt.Errorf("figure14: %w", err)
	}
	fmt.Printf("\n== Figure 14: AS appearances in default vs alternate paths (UW1): %d ASes ==\n", len(counts14))
	{
		xs := make([]float64, len(counts14))
		ys := make([]float64, len(counts14))
		for i, c := range counts14 {
			xs[i], ys[i] = float64(c.Direct), float64(c.Alternate)
		}
		if plot := report.AsciiScatter(xs, ys, 12, 56); plot != "" {
			fmt.Print(plot)
			fmt.Println("  (x: default paths through AS, y: alternate paths through AS)")
		}
	}
	if outDir != "" {
		var b strings.Builder
		for _, c := range counts14 {
			fmt.Fprintf(&b, "%d\t%d\t%d\n", c.AS, c.Direct, c.Alternate)
		}
		if err := os.WriteFile(filepath.Join(outDir, "figure14.dat"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}

	decs, err := experiments.Figure16(s)
	if err != nil {
		return fmt.Errorf("figure16: %w", err)
	}
	census := core.GroupCensus(decs)
	fmt.Printf("\n== Figure 16: propagation vs queuing decomposition (UW3, %d pairs) ==\n", len(decs))
	for g := core.Group1; g <= core.Group6; g++ {
		fmt.Printf("  group %d: %d\n", int(g), census[g])
	}
	{
		xs := make([]float64, len(decs))
		ys := make([]float64, len(decs))
		for i, d := range decs {
			xs[i], ys[i] = d.TotalDiff, d.PropDiff
		}
		if plot := report.AsciiScatter(xs, ys, 12, 56); plot != "" {
			fmt.Print(plot)
			fmt.Println("  (x: mean-RTT difference, y: propagation-delay difference)")
		}
	}
	if outDir != "" {
		var b strings.Builder
		for _, d := range decs {
			fmt.Fprintf(&b, "%g\t%g\t%d\n", d.TotalDiff, d.PropDiff, int(d.Group))
		}
		if err := os.WriteFile(filepath.Join(outDir, "figure16.dat"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}

	// Extension experiments (see EXPERIMENTS.md, Extensions): analyses
	// the original study could not run on the real Internet.
	cons, err := experiments.ValidateConservativity(s)
	if err != nil {
		return fmt.Errorf("conservativity: %w", err)
	}
	fmt.Println("\n== Extension: source-routing validation of the conservativity claim ==")
	fmt.Printf("  pairs %d, predicted better %d, confirmed by source routing %.0f%%, estimate conservative %.0f%%\n",
		cons.Pairs, cons.PredictedBetter, 100*cons.ConfirmationFraction(), 100*cons.ConservativeFraction())

	tri, err := experiments.Triangulation(s)
	if err != nil {
		return fmt.Errorf("triangulation: %w", err)
	}
	viol := 0
	for _, r := range tri {
		if r.ViolatesTriangle() {
			viol++
		}
	}
	fmt.Println("\n== Extension: host-distance triangulation (FJP+99-style) ==")
	fmt.Printf("  triangle-inequality violations: %d of %d pairs (%.0f%%)\n",
		viol, len(tri), 100*float64(viol)/float64(len(tri)))

	dyn, err := experiments.RouteDynamics(s, cfg.Seed)
	if err != nil {
		return fmt.Errorf("route dynamics: %w", err)
	}
	fmt.Println("\n== Extension: route dynamics (Paxson-style dominance census) ==")
	fmt.Printf("  %d routing epochs; %d of %d pairs dominated by one route (mean dominance %.2f, max %d routes)\n",
		dyn.Epochs, dyn.DominatedPairs, dyn.Pairs, dyn.MeanDominantFraction, dyn.MaxDistinctRoutes)

	_, infl, err := experiments.PathInflation(s)
	if err != nil {
		return fmt.Errorf("path inflation: %w", err)
	}
	ep, err := core.NewAnalyzer(s.UW4A).WithConcurrency(cfg.Concurrency).AnalyzeEpisodes()
	if err != nil {
		return fmt.Errorf("episode churn: %w", err)
	}
	if len(ep.RelayChurn) > 0 {
		sum := 0.0
		for _, c := range ep.RelayChurn {
			sum += c
		}
		fmt.Println("\n== Extension: best-relay churn across UW4-A episodes ==")
		fmt.Printf("  mean churn %.0f%%: consecutive episodes pick a different best relay for the\n",
			100*sum/float64(len(ep.RelayChurn)))
		fmt.Println("  same pair that often (Section 6.4's \"different alternate paths being")
		fmt.Println("  selected as best in each episode\")")
	}

	tcpv, err := experiments.ValidateTCPModel(s, cfg.Seed)
	if err != nil {
		return fmt.Errorf("tcp model validation: %w", err)
	}
	fmt.Println("\n== Extension: Mathis-model validation against simulated TCP Reno ==")
	fmt.Printf("  %d N2 paths: rank correlation %.3f, median sim/model ratio %.2f, %.0f%% within 2x\n",
		tcpv.Pairs, tcpv.RankCorrelation, tcpv.MedianRatio, 100*tcpv.WithinFactor2)

	pv, err := experiments.ValidatePacketLevel(s)
	if err != nil {
		return fmt.Errorf("packet-level validation: %w", err)
	}
	fmt.Printf("\n== Extension: packet-level TCP vs Mathis vs rounds model (%d of %d N2 pairs, %gs transfers) ==\n",
		pv.Pairs, pv.TotalPairs, pv.DurationSec)
	fmt.Printf("  packet/mathis: median ratio %.2f, %.0f%% within 2x, rank correlation %.3f\n",
		pv.MedianRatioMathis, 100*pv.WithinFactor2Mathis, pv.RankCorrMathis)
	fmt.Printf("  packet/tcpsim: median ratio %.2f, %.0f%% within 2x, rank correlation %.3f\n",
		pv.MedianRatioSim, 100*pv.WithinFactor2Sim, pv.RankCorrSim)
	prows := [][]string{{"Regime", "Pairs", "Median packet/mathis", "Median |rel err|"}}
	for _, reg := range pv.Regimes {
		prows = append(prows, []string{
			reg.Name, fmt.Sprint(reg.Pairs),
			fmt.Sprintf("%.2f", reg.MedianRatio),
			fmt.Sprintf("%.2f", reg.MedianAbsRelErr),
		})
	}
	if err := report.Table(os.Stdout, prows); err != nil {
		return err
	}
	if outDir != "" {
		if err := dumpPacketLevel(outDir, pv); err != nil {
			return err
		}
	}

	fmt.Println("\n== Extension: path inflation vs the policy-free optimum ==")
	fmt.Printf("  median inflation %.2fx, p90 %.2fx; %.0f%% of pairs inflated >=20%%;\n",
		infl.MedianInflation, infl.P90Inflation, 100*infl.InflatedFraction)
	fmt.Printf("  alternates recover a mean %.0f%% of the gap (>=half the gap for %.0f%% of inflated pairs)\n",
		100*infl.MeanRecovery, 100*infl.HalfRecoveredFraction)

	cross, err := experiments.CrossMetrics(s)
	if err != nil {
		return fmt.Errorf("cross metrics: %w", err)
	}
	fmt.Println("\n== Extension: cross-metric agreement of best alternates ==")
	fmt.Printf("  RTT-best alternates that also improve loss: %d of %d (%.0f%%)\n",
		cross.RTTAlsoLoss, cross.RTTWinners, 100*float64(cross.RTTAlsoLoss)/float64(cross.RTTWinners))
	fmt.Printf("  loss-best alternates that also improve RTT: %d of %d (%.0f%%)\n",
		cross.LossAlsoRTT, cross.LossWinners, 100*float64(cross.LossAlsoRTT)/float64(cross.LossWinners))

	causes, err := experiments.CauseAblation(experiments.Config{Seed: cfg.Seed})
	if err != nil {
		return fmt.Errorf("cause ablation: %w", err)
	}
	fmt.Println("\n== Extension: mechanism ablation (one modeled cause removed at a time) ==")
	crows := [][]string{{"Variant", "Alt better", "Median gain (ms)", "Mean default RTT (ms)"}}
	for _, r := range causes {
		crows = append(crows, []string{
			r.Variant,
			fmt.Sprintf("%.0f%%", 100*r.BetterFraction),
			fmt.Sprintf("%.1f", r.MedianImprovement),
			fmt.Sprintf("%.1f", r.MeanDefaultRTT),
		})
	}
	if err := report.Table(os.Stdout, crows); err != nil {
		return err
	}

	ov, err := experiments.Overlay(s, cfg.Seed)
	if err != nil {
		return fmt.Errorf("overlay: %w", err)
	}
	fmt.Printf("\n== Extension: online overlay vs default vs offline optimum (%d nodes, %d pairs, %d routing epochs) ==\n",
		ov.Nodes, ov.Pairs, ov.Epochs)
	orows := [][]string{{"Probes/s", "Avail default", "Avail overlay", "Avail optimal",
		"RTT default", "RTT overlay", "RTT optimal", "Relay share", "Median reaction"}}
	for _, b := range ov.Budgets {
		reaction := "-"
		if med, err := stats.NewCDF(b.Reactions).Quantile(0.5); err == nil {
			reaction = fmt.Sprintf("%.0f s", med)
		}
		orows = append(orows, []string{
			fmt.Sprintf("%.1f", b.ProbesPerSec),
			fmt.Sprintf("%.3f%%", 100*b.Default.Availability),
			fmt.Sprintf("%.3f%%", 100*b.Overlay.Availability),
			fmt.Sprintf("%.3f%%", 100*b.Optimal.Availability),
			fmt.Sprintf("%.1f ms", b.Default.MeanRTTMs),
			fmt.Sprintf("%.1f ms", b.Overlay.MeanRTTMs),
			fmt.Sprintf("%.1f ms", b.Optimal.MeanRTTMs),
			fmt.Sprintf("%.0f%%", 100*b.RelayShare),
			reaction,
		})
	}
	if err := report.Table(os.Stdout, orows); err != nil {
		return err
	}
	if outDir != "" {
		if err := dumpOverlay(outDir, ov); err != nil {
			return err
		}
	}

	mp, err := experiments.Multipath(s)
	if err != nil {
		return fmt.Errorf("multipath: %w", err)
	}
	fmt.Printf("\n== Extension: k-alternate path sets and AS disjointness (%s, %d pairs) ==\n",
		mp.Dataset, mp.Pairs)
	mrows := [][]string{{"k", "Mean improvement (ms)", "AS-disjoint pairs", "Mean max disjointness"}}
	for _, pt := range mp.Curve {
		mrows = append(mrows, []string{
			fmt.Sprint(pt.K),
			fmt.Sprintf("%.2f", pt.MeanImprovementMs),
			fmt.Sprintf("%.0f%%", 100*pt.FullyDisjointFrac),
			fmt.Sprintf("%.2f", pt.MeanMaxDisjointness),
		})
	}
	if err := report.Table(os.Stdout, mrows); err != nil {
		return err
	}
	srows := [][]string{{"Strategy", "Mean pick RTT (ms)", "Mean AS disjointness"}}
	for _, row := range mp.Strategies {
		srows = append(srows, []string{
			row.Strategy,
			fmt.Sprintf("%.1f", row.MeanLatencyMs),
			fmt.Sprintf("%.2f", row.MeanDisjointness),
		})
	}
	if err := report.Table(os.Stdout, srows); err != nil {
		return err
	}
	if outDir != "" {
		if err := dumpMultipath(outDir, mp); err != nil {
			return err
		}
	}

	fracs, err := experiments.SeedSensitivity(cfg.Seed, 5)
	if err != nil {
		return fmt.Errorf("seed sensitivity: %w", err)
	}
	fmt.Print("\n== Extension: seed sensitivity of the headline fraction ==\n  better-alternate fraction across 5 topology seeds:")
	for _, f := range fracs {
		fmt.Printf(" %.0f%%", 100*f)
	}
	fmt.Println()
	return nil
}

// dumpOverlay writes the overlay exhibit's data files: a per-budget
// summary, one failover-reaction CDF per probing budget, and the
// per-connection RTT CDFs of the reference budget.
func dumpOverlay(dir string, ov experiments.OverlayResult) error {
	var b strings.Builder
	b.WriteString("# probes_per_sec\tavail_default\tavail_overlay\tavail_optimal\trtt_default_ms\trtt_overlay_ms\trtt_optimal_ms\tloss_default\tloss_overlay\tloss_optimal\trelay_share\tprobes\tswitches\toutages\treactions\n")
	for _, bd := range ov.Budgets {
		fmt.Fprintf(&b, "%g\t%.6f\t%.6f\t%.6f\t%.4f\t%.4f\t%.4f\t%.6f\t%.6f\t%.6f\t%.4f\t%d\t%d\t%d\t%d\n",
			bd.ProbesPerSec,
			bd.Default.Availability, bd.Overlay.Availability, bd.Optimal.Availability,
			bd.Default.MeanRTTMs, bd.Overlay.MeanRTTMs, bd.Optimal.MeanRTTMs,
			bd.Default.MeanLoss, bd.Overlay.MeanLoss, bd.Optimal.MeanLoss,
			bd.RelayShare, bd.ProbesSent, bd.Switches, bd.OutagesDetected, len(bd.Reactions))
	}
	if err := os.WriteFile(filepath.Join(dir, "overlay-summary.dat"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	for _, bd := range ov.Budgets {
		name := fmt.Sprintf("overlay-reaction-b%s.dat", sanitize(fmt.Sprintf("%g", bd.ProbesPerSec)))
		if err := dumpCDF(dir, name, stats.NewCDF(bd.Reactions)); err != nil {
			return err
		}
	}
	for _, rtt := range []struct {
		name   string
		values []float64
	}{
		{"overlay-pair-rtt-overlay.dat", ov.OverlayRTTs},
		{"overlay-pair-rtt-default.dat", ov.DefaultRTTs},
		{"overlay-pair-rtt-optimal.dat", ov.OptimalRTTs},
	} {
		if err := dumpCDF(dir, rtt.name, stats.NewCDF(rtt.values)); err != nil {
			return err
		}
	}
	return nil
}

// dumpMultipath writes the multipath exhibit's data files: the
// k-vs-benefit curve and the per-pair best-AS-disjointness CDF.
func dumpMultipath(dir string, mp experiments.MultipathResult) error {
	var b strings.Builder
	b.WriteString("# k\tmean_improvement_ms\tfully_disjoint_frac\tmean_max_disjointness\n")
	for _, pt := range mp.Curve {
		fmt.Fprintf(&b, "%d\t%.6f\t%.6f\t%.6f\n",
			pt.K, pt.MeanImprovementMs, pt.FullyDisjointFrac, pt.MeanMaxDisjointness)
	}
	if err := os.WriteFile(filepath.Join(dir, "multipath-kcurve.dat"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	return dumpCDF(dir, "multipath-disjointness.dat", stats.NewCDF(mp.Disjointness))
}

// dumpPacketLevel writes the packet-level validation's data files: the
// per-pair three-way comparison and the regime divergence summary.
func dumpPacketLevel(dir string, pv experiments.PacketValidation) error {
	var b strings.Builder
	b.WriteString("# pair\trtt_ms\tloss\tpacket_kbs\tmathis_kbs\ttcpsim_kbs\tretransmits\ttimeouts\tfast_retx\tout_of_order\n")
	for _, r := range pv.Results {
		fmt.Fprintf(&b, "%s\t%.4f\t%.6f\t%.4f\t%.4f\t%.4f\t%d\t%d\t%d\t%d\n",
			r.Pair, r.RTTMs, r.Loss, r.PacketKBs, r.MathisKBs, r.SimKBs,
			r.Retransmits, r.Timeouts, r.FastRetx, r.OutOfOrder)
	}
	if err := os.WriteFile(filepath.Join(dir, "packetlevel-pairs.dat"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	b.Reset()
	b.WriteString("# regime\tpairs\tmedian_packet_mathis_ratio\tmedian_abs_rel_err\n")
	for _, reg := range pv.Regimes {
		fmt.Fprintf(&b, "%s\t%d\t%.4f\t%.4f\n", reg.Name, reg.Pairs, reg.MedianRatio, reg.MedianAbsRelErr)
	}
	return os.WriteFile(filepath.Join(dir, "packetlevel-regimes.dat"), []byte(b.String()), 0o644)
}

// dumpCDF writes c to dir/name as plottable tab-separated data.
func dumpCDF(dir, name string, c stats.CDF) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.DumpCDF(f, c, 500)
}

func dumpSeries(dir, figID string, sr experiments.Series) error {
	return dumpCDF(dir, fmt.Sprintf("%s-%s.dat", figID, sanitize(sr.Name)), sr.CDF)
}

func dumpCIPoints(dir, figID string, pts []core.CIPoint) error {
	var b strings.Builder
	for i, p := range pts {
		frac := float64(i+1) / float64(len(pts))
		fmt.Fprintf(&b, "%g\t%.4f\t%g\n", p.Improvement, frac, p.HalfWidth)
	}
	return os.WriteFile(filepath.Join(dir, figID+".dat"), []byte(b.String()), 0o644)
}

func sanitize(s string) string {
	s = strings.ToLower(s)
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, s)
	return strings.Trim(s, "-")
}
