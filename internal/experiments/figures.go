package experiments

import (
	"fmt"

	"pathsel/internal/core"
	"pathsel/internal/dataset"
	"pathsel/internal/netsim"
	"pathsel/internal/stats"
	"pathsel/internal/tcpmodel"
)

// Series is one labeled CDF curve of a figure.
type Series struct {
	Name string
	CDF  stats.CDF
}

// Confidence is the level used throughout the paper's Section 6.
const Confidence = 0.95

// improvementSeries runs the alternate-path comparison on several
// datasets and returns one improvement-CDF series per dataset.
func improvementSeries(s *Suite, dss []*dataset.Dataset, metric core.Metric, maxVia int) ([]Series, error) {
	var out []Series
	for _, ds := range dss {
		rs, err := s.analyzer(ds).Query(core.QuerySpec{Metric: metric, MaxVia: maxVia})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%v: %w", ds.Name, metric, err)
		}
		out = append(out, Series{Name: ds.Name, CDF: core.ImprovementCDF(rs.Rows)})
	}
	return out, nil
}

// Figure1 is the CDF of the difference between each path's mean
// round-trip time and the best alternate's, for UW1, UW3, D2-NA and D2.
func Figure1(s *Suite) ([]Series, error) {
	return improvementSeries(s, s.Datasets(), core.MetricRTT, 0)
}

// Figure2 is the CDF of the ratio between default and best-alternate
// mean round-trip times for the same four datasets.
func Figure2(s *Suite) ([]Series, error) {
	var out []Series
	for _, ds := range s.Datasets() {
		rs, err := s.analyzer(ds).Query(core.QuerySpec{Metric: core.MetricRTT})
		if err != nil {
			return nil, err
		}
		out = append(out, Series{Name: ds.Name, CDF: core.RatioCDF(rs.Rows)})
	}
	return out, nil
}

// Figure3 is the CDF of the difference in mean loss rate between default
// and best alternate paths.
func Figure3(s *Suite) ([]Series, error) {
	return improvementSeries(s, s.Datasets(), core.MetricLoss, 0)
}

// bandwidthSeries computes Figure 4/5 series for N2 and N2-NA under both
// loss-composition modes.
func bandwidthSeries(s *Suite, ratio bool) ([]Series, error) {
	model := tcpmodel.Default()
	var out []Series
	for _, ds := range []*dataset.Dataset{s.N2, s.N2NA} {
		for _, mode := range []core.BandwidthMode{core.Pessimistic, core.Optimistic} {
			rs, err := s.analyzer(ds).Query(core.QuerySpec{Bandwidth: &core.BandwidthQuery{Model: model, Mode: mode}})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s bandwidth: %w", ds.Name, err)
			}
			results := rs.Bandwidth
			vals := make([]float64, 0, len(results))
			for _, r := range results {
				if ratio {
					vals = append(vals, r.Ratio())
				} else {
					vals = append(vals, r.Improvement())
				}
			}
			out = append(out, Series{
				Name: fmt.Sprintf("%s %s", ds.Name, mode),
				CDF:  stats.NewCDF(vals),
			})
		}
	}
	return out, nil
}

// Figure4 is the CDF of the bandwidth difference (best one-hop alternate
// minus default) for N2 and N2-NA, optimistic and pessimistic.
func Figure4(s *Suite) ([]Series, error) { return bandwidthSeries(s, false) }

// Figure5 is the corresponding bandwidth-ratio CDF.
func Figure5(s *Suite) ([]Series, error) { return bandwidthSeries(s, true) }

// Figure6 compares mean-based and median-based (convolution) one-hop
// alternate improvements on the D2-NA dataset.
func Figure6(s *Suite) ([]Series, error) {
	a := s.analyzer(s.D2NA)
	results, err := a.BestMedianAlternates()
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(results))
	medians := make([]float64, len(results))
	for i, r := range results {
		means[i] = r.MeanImprovement
		medians[i] = r.MedianImprovement
	}
	return []Series{
		{Name: "mean (one-hop)", CDF: stats.NewCDF(means)},
		{Name: "median (one-hop)", CDF: stats.NewCDF(medians)},
	}, nil
}

// Figure7 is the UW3 round-trip improvement CDF annotated with 95%
// confidence half-widths per pair.
func Figure7(s *Suite) ([]core.CIPoint, error) {
	rs, err := s.analyzer(s.UW3).Query(core.QuerySpec{Metric: core.MetricRTT})
	if err != nil {
		return nil, err
	}
	return core.ImprovementsWithCI(rs.Rows, Confidence), nil
}

// Figure8 is the same for loss rate.
func Figure8(s *Suite) ([]core.CIPoint, error) {
	rs, err := s.analyzer(s.UW3).Query(core.QuerySpec{Metric: core.MetricLoss})
	if err != nil {
		return nil, err
	}
	return core.ImprovementsWithCI(rs.Rows, Confidence), nil
}

// bucketSeries runs the time-of-day breakdown on UW3 (Figures 9 and 10).
func bucketSeries(s *Suite, metric core.Metric) ([]Series, error) {
	a := s.analyzer(s.UW3)
	var out []Series
	for _, b := range netsim.Buckets() {
		rs, err := a.Query(core.QuerySpec{Metric: metric, Bucket: &b})
		if err != nil {
			return nil, err
		}
		out = append(out, Series{Name: b.String(), CDF: core.ImprovementCDF(rs.Rows)})
	}
	return out, nil
}

// Figure9 is the UW3 round-trip improvement CDF broken down by weekend
// and four six-hour weekday buckets (PST).
func Figure9(s *Suite) ([]Series, error) { return bucketSeries(s, core.MetricRTT) }

// Figure10 is the same breakdown for loss rate.
func Figure10(s *Suite) ([]Series, error) { return bucketSeries(s, core.MetricLoss) }

// Figure11 compares long-term averaging with simultaneous measurement:
// the UW4-B improvement CDF versus the UW4-A pair-averaged and
// unaveraged episode CDFs.
func Figure11(s *Suite) ([]Series, error) {
	brs, err := s.analyzer(s.UW4B).Query(core.QuerySpec{Metric: core.MetricRTT})
	if err != nil {
		return nil, err
	}
	bResults := brs.Rows
	ep, err := s.analyzer(s.UW4A).AnalyzeEpisodes()
	if err != nil {
		return nil, err
	}
	return []Series{
		{Name: "UW4-B", CDF: core.ImprovementCDF(bResults)},
		{Name: "pair-averaged UW4-A", CDF: stats.NewCDF(ep.PairAveraged)},
		{Name: "unaveraged UW4-A", CDF: stats.NewCDF(ep.Unaveraged)},
	}, nil
}

// TopTenHosts is how many hosts the Figure 12 greedy removal drops.
const TopTenHosts = 10

// Figure12Result carries the before/after CDFs and the removed hosts.
type Figure12Result struct {
	All     Series
	Without Series
	Removed []core.RemovalStep
}

// Figure12 removes the ten hosts with the greatest impact on the UW3
// round-trip CDF (greedy, as in the paper) and compares the curves.
func Figure12(s *Suite) (Figure12Result, error) {
	a := s.analyzer(s.UW3)
	allRS, err := a.Query(core.QuerySpec{Metric: core.MetricRTT})
	if err != nil {
		return Figure12Result{}, err
	}
	all := allRS.Rows
	// Removing ten of the paper's 39 hosts drops about a quarter of the
	// host set; cap the removal at that proportion so reduced host sets
	// (the quick preset) test the same question.
	n := TopTenHosts
	if quarter := len(s.UW3.Hosts) / 4; n > quarter {
		n = quarter
	}
	steps, after, err := a.GreedyRemoveTop(core.MetricRTT, 0, n)
	if err != nil {
		return Figure12Result{}, err
	}
	return Figure12Result{
		All:     Series{Name: "all " + s.UW3.Name + " hosts", CDF: core.ImprovementCDF(all)},
		Without: Series{Name: "without 'top ten'", CDF: core.ImprovementCDF(after)},
		Removed: steps,
	}, nil
}

// Figure13 is the CDF of per-host normalized improvement contributions
// in UW3.
func Figure13(s *Suite) (Series, error) {
	contribs, err := s.analyzer(s.UW3).ImprovementContributions(core.MetricRTT)
	if err != nil {
		return Series{}, err
	}
	vals := make([]float64, len(contribs))
	for i, c := range contribs {
		vals[i] = c.Value
	}
	return Series{Name: "normalized improvement contribution", CDF: stats.NewCDF(vals)}, nil
}

// Figure14 is the AS scatterplot for UW1: how many default paths and how
// many best alternate paths each AS appears in.
func Figure14(s *Suite) ([]core.ASCount, error) {
	return s.analyzer(s.UW1).ASAppearances(core.MetricRTT, 0)
}

// Figure15 compares the UW3 improvement CDFs for propagation delay
// (tenth-percentile estimate) and mean round-trip time.
func Figure15(s *Suite) ([]Series, error) {
	a := s.analyzer(s.UW3)
	prop, err := a.Query(core.QuerySpec{Metric: core.MetricPropDelay})
	if err != nil {
		return nil, err
	}
	rtt, err := a.Query(core.QuerySpec{Metric: core.MetricRTT})
	if err != nil {
		return nil, err
	}
	return []Series{
		{Name: "propagation delay", CDF: core.ImprovementCDF(prop.Rows)},
		{Name: "mean round-trip", CDF: core.ImprovementCDF(rtt.Rows)},
	}, nil
}

// Figure16 is the propagation-versus-queuing decomposition scatter for
// UW3, with the six-group census.
func Figure16(s *Suite) ([]core.DelayDecomposition, error) {
	return s.analyzer(s.UW3).DecomposeDelay()
}
