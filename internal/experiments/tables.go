package experiments

import (
	"pathsel/internal/core"
	"pathsel/internal/dataset"
)

// Table1 returns the dataset characteristics rows in the paper's order:
// D2-NA, D2, N2-NA, N2, UW1, UW3, UW4-A, UW4-B.
func Table1(s *Suite) []dataset.Characteristics {
	rows := []*dataset.Dataset{s.D2NA, s.D2, s.N2NA, s.N2, s.UW1, s.UW3, s.UW4A, s.UW4B}
	out := make([]dataset.Characteristics, len(rows))
	for i, ds := range rows {
		out[i] = ds.Characteristics()
	}
	return out
}

// VerdictRow is one dataset's t-test classification (a column of the
// paper's Tables 2 and 3).
type VerdictRow struct {
	Dataset string
	Counts  core.VerdictCounts
}

// verdictTable classifies every dataset's pair comparisons at the 95%
// level for the given metric.
func verdictTable(s *Suite, metric core.Metric) ([]VerdictRow, error) {
	var out []VerdictRow
	for _, ds := range s.Datasets() {
		rs, err := s.analyzer(ds).Query(core.QuerySpec{Metric: metric})
		if err != nil {
			return nil, err
		}
		out = append(out, VerdictRow{
			Dataset: ds.Name,
			Counts:  core.ClassifyVerdicts(rs.Rows, Confidence),
		})
	}
	return out, nil
}

// Table2 classifies mean round-trip differences: the percentage of paths
// whose best alternate is better, worse, or indeterminate at 95%.
func Table2(s *Suite) ([]VerdictRow, error) { return verdictTable(s, core.MetricRTT) }

// Table3 does the same for loss rate, with the extra "is zero" class for
// pairs with no losses on either path.
func Table3(s *Suite) ([]VerdictRow, error) { return verdictTable(s, core.MetricLoss) }
