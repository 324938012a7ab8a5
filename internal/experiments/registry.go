package experiments

import (
	"pathsel/internal/core"
	"pathsel/internal/stats"
)

// Figure is one entry of the paper's figure catalogue.
type Figure struct {
	// N is the figure's number in the paper.
	N int
	// Title is the heading the figure is reported under.
	Title string
	// Scale marks the headline figures the scale preset runs: those
	// that exercise the planet-scale substrate without the episode and
	// bandwidth campaigns' quadratic post-processing.
	Scale bool
	// Detailed marks figures whose driver returns more than CDF curves
	// (confidence intervals, removal steps, scatter points). Their
	// Series is a CDF view of that result, and reports that want the
	// rest call the driver itself.
	Detailed bool
	// Series computes the figure's CDF curves.
	Series func(*Suite) ([]Series, error)
}

// Figures is the paper's figure catalogue, ordered 1 through 16: the
// one list every consumer iterates or looks figures up in.
var Figures = []Figure{
	{N: 1, Title: "Figure 1: CDF of mean RTT difference (default - best alternate)", Scale: true, Series: Figure1},
	{N: 2, Title: "Figure 2: CDF of RTT ratio (default / best alternate)", Scale: true, Series: Figure2},
	{N: 3, Title: "Figure 3: CDF of mean loss-rate difference", Scale: true, Series: Figure3},
	{N: 4, Title: "Figure 4: CDF of bandwidth difference (one-hop alternates)", Series: Figure4},
	{N: 5, Title: "Figure 5: CDF of bandwidth ratio", Series: Figure5},
	{N: 6, Title: "Figure 6: mean vs median RTT improvement (one-hop, D2-NA)", Series: Figure6},
	{N: 7, Title: "Figure 7: RTT improvement with 95% confidence half-widths (UW3)", Detailed: true, Series: ciSeries(Figure7)},
	{N: 8, Title: "Figure 8: loss improvement with 95% confidence half-widths (UW3)", Detailed: true, Series: ciSeries(Figure8)},
	{N: 9, Title: "Figure 9: RTT improvement by time of day (UW3)", Series: Figure9},
	{N: 10, Title: "Figure 10: loss improvement by time of day (UW3)", Series: Figure10},
	{N: 11, Title: "Figure 11: long-term average vs simultaneous episodes (UW4)", Series: Figure11},
	{N: 12, Title: "Figure 12: greedy removal of most influential hosts (UW3)", Detailed: true, Series: figure12Series},
	{N: 13, Title: "Figure 13: per-host normalized improvement contribution (UW3)", Detailed: true, Series: figure13Series},
	{N: 14, Title: "Figure 14: AS appearances in default vs alternate paths (UW1)", Detailed: true, Series: figure14Series},
	{N: 15, Title: "Figure 15: propagation delay vs mean RTT improvement (UW3)", Scale: true, Series: Figure15},
	{N: 16, Title: "Figure 16: propagation vs queuing decomposition (UW3)", Detailed: true, Series: figure16Series},
}

// ciSeries views a confidence-interval figure (7 or 8) as the CDF of
// its per-pair improvements.
func ciSeries(fn func(*Suite) ([]core.CIPoint, error)) func(*Suite) ([]Series, error) {
	return func(s *Suite) ([]Series, error) {
		pts, err := fn(s)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(pts))
		for i, p := range pts {
			vals[i] = p.Improvement
		}
		return []Series{{Name: "improvement", CDF: stats.NewCDF(vals)}}, nil
	}
}

// figure12Series is Figure 12's before and after curves.
func figure12Series(s *Suite) ([]Series, error) {
	res, err := Figure12(s)
	if err != nil {
		return nil, err
	}
	return []Series{res.All, res.Without}, nil
}

// figure13Series is Figure 13's one contribution curve.
func figure13Series(s *Suite) ([]Series, error) {
	sr, err := Figure13(s)
	if err != nil {
		return nil, err
	}
	return []Series{sr}, nil
}

// figure14Series views Figure 14's scatter as the CDFs of each AS's
// default-path and alternate-path appearance counts.
func figure14Series(s *Suite) ([]Series, error) {
	counts, err := Figure14(s)
	if err != nil {
		return nil, err
	}
	direct := make([]float64, len(counts))
	alt := make([]float64, len(counts))
	for i, c := range counts {
		direct[i] = float64(c.Direct)
		alt[i] = float64(c.Alternate)
	}
	return []Series{
		{Name: "direct", CDF: stats.NewCDF(direct)},
		{Name: "alternate", CDF: stats.NewCDF(alt)},
	}, nil
}

// figure16Series views Figure 16's scatter as the CDFs of the total
// and propagation-delay differences.
func figure16Series(s *Suite) ([]Series, error) {
	decs, err := Figure16(s)
	if err != nil {
		return nil, err
	}
	total := make([]float64, len(decs))
	prop := make([]float64, len(decs))
	for i, d := range decs {
		total[i] = d.TotalDiff
		prop[i] = d.PropDiff
	}
	return []Series{
		{Name: "total", CDF: stats.NewCDF(total)},
		{Name: "propagation", CDF: stats.NewCDF(prop)},
	}, nil
}
