package core

import (
	"math"
	"sort"

	"pathsel/internal/dataset"
	"pathsel/internal/fanout"
	"pathsel/internal/stats"
	"pathsel/internal/topology"
)

// VerdictCounts classifies every pair comparison with a Welch t-test at
// the given confidence level, producing the paper's Tables 2 and 3:
// whether the best alternate is significantly better, significantly
// worse, exactly zero on both sides (loss only), or indeterminate.
type VerdictCounts struct {
	Better, Worse, Indeterminate, BothZero int
}

// Total returns the number of classified pairs.
func (v VerdictCounts) Total() int {
	return v.Better + v.Worse + v.Indeterminate + v.BothZero
}

// Percent returns the four counts as percentages of the total.
func (v VerdictCounts) Percent() (better, indeterminate, worse, bothZero float64) {
	t := float64(v.Total())
	//repolint:allow floateq -- t is an integer count converted to float; zero is exact
	if t == 0 {
		return 0, 0, 0, 0
	}
	return 100 * float64(v.Better) / t, 100 * float64(v.Indeterminate) / t,
		100 * float64(v.Worse) / t, 100 * float64(v.BothZero) / t
}

// ClassifyVerdicts runs the t-test over pair results. "Better" means the
// alternate's mean is significantly below the default's.
func ClassifyVerdicts(results []PairResult, confidence float64) VerdictCounts {
	var out VerdictCounts
	for _, r := range results {
		switch stats.CompareMeans(r.Alternate, r.Default, confidence) {
		case stats.FirstSmaller:
			out.Better++
		case stats.FirstLarger:
			out.Worse++
		case stats.BothZero:
			out.BothZero++
		default:
			out.Indeterminate++
		}
	}
	return out
}

// CIPoint is one CDF point annotated with its 95% confidence half-width,
// for the error-bar Figures 7 and 8.
type CIPoint struct {
	Improvement float64
	HalfWidth   float64
}

// ImprovementsWithCI returns the sorted improvements with per-pair
// confidence half-widths for the mean difference.
func ImprovementsWithCI(results []PairResult, confidence float64) []CIPoint {
	pts := make([]CIPoint, len(results))
	for i, r := range results {
		pts[i] = CIPoint{
			Improvement: r.Improvement(),
			HalfWidth:   stats.MeanDiffCI(r.Default, r.Alternate, confidence),
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Improvement < pts[j].Improvement })
	return pts
}

// RemovalStep records one iteration of the greedy host-removal analysis.
type RemovalStep struct {
	Removed topology.HostID
	// MeanImprovement is the mean of the improvement CDF after this
	// removal (the quantity the greedy step minimizes).
	MeanImprovement float64
}

// GreedyRemoveTop implements the paper's Figure 12 experiment: repeatedly
// remove the host whose removal shifts the improvement CDF farthest left
// (here: minimizes the mean improvement over remaining pairs), n times.
// It returns the removal sequence and the pair results after all
// removals. Candidate removals within one iteration are independent, so
// they are evaluated concurrently (each worker owns a private exclusion
// buffer); the winning host is reduced in candidate order, making the
// sequence identical to the sequential engine's.
func (a *Analyzer) GreedyRemoveTop(metric Metric, maxVia, n int) ([]RemovalStep, []PairResult, error) {
	g, err := a.graphFor(metric)
	if err != nil {
		return nil, nil, err
	}
	excluded := make([]bool, len(g.hosts))
	workers := a.workers()
	// Per-worker exclusion buffers, refreshed from the committed set each
	// iteration; the per-pair searches inside a candidate evaluation run
	// sequentially because the candidates already saturate the workers.
	bufs := make([][]bool, workers)
	for w := range bufs {
		bufs[w] = make([]bool, len(g.hosts))
	}
	var steps []RemovalStep
	for iter := 0; iter < n; iter++ {
		candidates := make([]int, 0, len(g.hosts))
		for h := range g.hosts {
			if !excluded[h] {
				candidates = append(candidates, h)
			}
		}
		for w := range bufs {
			copy(bufs[w], excluded)
		}
		means := make([]float64, len(candidates))
		counts := make([]int, len(candidates))
		err := fanout.For(a.context(), workers, len(candidates), func(w, i int) error {
			h := candidates[i]
			excl := bufs[w]
			excl[h] = true
			results, err := a.bestAlternatesWith(g, metric, maxVia, excl, 1)
			excl[h] = false
			if err != nil {
				return err
			}
			counts[i] = len(results)
			if len(results) == 0 {
				return nil
			}
			sum := 0.0
			for _, r := range results {
				sum += r.Improvement()
			}
			means[i] = sum / float64(len(results))
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		bestHost := -1
		bestMean := math.Inf(1)
		for i, h := range candidates {
			if counts[i] == 0 {
				continue
			}
			if means[i] < bestMean {
				bestMean, bestHost = means[i], h
			}
		}
		if bestHost == -1 {
			break
		}
		excluded[bestHost] = true
		steps = append(steps, RemovalStep{Removed: g.hosts[bestHost], MeanImprovement: bestMean})
	}
	removed := make([]topology.HostID, len(steps))
	for i, st := range steps {
		removed[i] = st.Removed
	}
	final, err := a.Query(QuerySpec{Metric: metric, MaxVia: maxVia, Exclude: Exclusions{Hosts: removed}})
	if err != nil {
		return nil, nil, err
	}
	return steps, final.Rows, nil
}

// Contribution is a host's normalized improvement contribution: how often
// it appears as an intermediate in a superior alternate path, weighted by
// how much better that alternate is (Figure 13).
type Contribution struct {
	Host  topology.HostID
	Value float64
}

// ImprovementContributions computes per-host contributions over superior
// one-hop alternates (every superior alternate, not just the best),
// normalized so the mean contribution is 100 — giving the paper's
// "normalized improvement contribution" axis. The per-host sums are
// computed concurrently, one relay host per task; each host's sum
// accumulates in pair-key order, so the result is independent of worker
// count.
func (a *Analyzer) ImprovementContributions(metric Metric) ([]Contribution, error) {
	g, err := a.graphFor(metric)
	if err != nil {
		return nil, err
	}
	// Prefilter the pairs once: vertex indices plus the direct value.
	type pairRef struct {
		si, di int32
		direct float64
	}
	var pairs []pairRef
	for _, k := range a.ds.PairKeys() {
		si, ok1 := g.index[k.Src]
		di, ok2 := g.index[k.Dst]
		if !ok1 || !ok2 {
			continue
		}
		direct, found := g.directEdge(si, di)
		if !found {
			continue
		}
		pairs = append(pairs, pairRef{si: int32(si), di: int32(di), direct: direct.value})
	}
	vals := make([]float64, len(g.hosts))
	err = fanout.For(a.context(), a.workers(), len(g.hosts), func(_, vi int) error {
		total := 0.0
		for _, p := range pairs {
			si, di := int(p.si), int(p.di)
			if vi == si || vi == di {
				continue
			}
			e1, f1 := g.directEdge(si, vi)
			if !f1 {
				continue
			}
			e2, f2 := g.directEdge(vi, di)
			if !f2 {
				continue
			}
			altWeight := e1.weight + e2.weight
			var altValue float64
			if metric == MetricLoss {
				altValue = lossFromWeight(altWeight)
			} else {
				altValue = altWeight
			}
			if improvement := p.direct - altValue; improvement > 0 {
				total += improvement
			}
		}
		vals[vi] = total
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Normalize to mean 100.
	total := 0.0
	for _, v := range vals {
		total += v
	}
	out := make([]Contribution, 0, len(vals))
	mean := total / float64(len(vals))
	for vi, h := range g.hosts {
		v := vals[vi]
		if mean > 0 {
			v = 100 * v / mean
		}
		out = append(out, Contribution{Host: h, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out, nil
}

// ASCount pairs an AS with the number of default paths and best alternate
// paths in which it appears (Figure 14's scatterplot).
type ASCount struct {
	AS        topology.ASN
	Direct    int
	Alternate int
}

// ASAppearances counts, for each AS observed in any traceroute, how many
// default paths and how many best-alternate paths (for the given metric)
// traverse it. An alternate path traverses the union of the ASes of its
// constituent measured hops.
func (a *Analyzer) ASAppearances(metric Metric, maxVia int) ([]ASCount, error) {
	rs, err := a.Query(QuerySpec{Metric: metric, MaxVia: maxVia})
	if err != nil {
		return nil, err
	}
	results := rs.Rows
	direct := map[topology.ASN]int{}
	alt := map[topology.ASN]int{}
	asesOf := func(k dataset.PairKey) []topology.ASN {
		p := a.ds.Paths[k]
		if p == nil {
			return nil
		}
		return p.ASPath
	}
	for _, r := range results {
		seen := map[topology.ASN]bool{}
		for _, asn := range asesOf(r.Key) {
			if !seen[asn] {
				seen[asn] = true
				direct[asn]++
			}
		}
		// The alternate path's hops: src->via1->...->dst.
		hopEnds := append([]topology.HostID{r.Key.Src}, r.Via...)
		hopEnds = append(hopEnds, r.Key.Dst)
		seenAlt := map[topology.ASN]bool{}
		for i := 0; i+1 < len(hopEnds); i++ {
			k := dataset.PairKey{Src: hopEnds[i], Dst: hopEnds[i+1]}
			for _, asn := range asesOf(k) {
				if !seenAlt[asn] {
					seenAlt[asn] = true
					alt[asn]++
				}
			}
		}
	}
	all := map[topology.ASN]bool{}
	for asn := range direct {
		all[asn] = true
	}
	for asn := range alt {
		all[asn] = true
	}
	out := make([]ASCount, 0, len(all))
	for asn := range all {
		out = append(out, ASCount{AS: asn, Direct: direct[asn], Alternate: alt[asn]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AS < out[j].AS })
	return out, nil
}

// DelayGroup is the paper's six-way classification of the scatterplot in
// Figure 16, by sign of the mean-latency difference and its relationship
// to the propagation-delay difference.
type DelayGroup int

const (
	// GroupUnclassified is returned for points on a boundary.
	GroupUnclassified DelayGroup = iota
	// Group1: alternate superior; better in both queuing and propagation.
	Group1
	// Group2: alternate superior; propagation difference exceeds the
	// total difference (queuing is worse along the alternate).
	Group2
	// Group3: alternate superior in mean but with worse propagation
	// (wins entirely by avoiding congestion... for default-superior
	// side; see paper). Points here have opposite-sign propagation.
	Group3
	// Group4: default superior; better in both components.
	Group4
	// Group5: default superior; propagation difference exceeds total.
	Group5
	// Group6: default superior in mean but alternate has better
	// propagation — the superior (default) path has much smaller
	// queuing delay.
	Group6
)

// DelayDecomposition is one pair's split of the round-trip difference
// into propagation and queuing components (Figure 16).
type DelayDecomposition struct {
	Key dataset.PairKey
	// TotalDiff is default mean RTT minus best-alternate mean RTT (x
	// axis; positive = alternate superior).
	TotalDiff float64
	// PropDiff is default propagation estimate minus the alternate's
	// composed propagation estimate (y axis).
	PropDiff float64
	Group    DelayGroup
}

// QueueDiff is the queuing component: total minus propagation.
func (d DelayDecomposition) QueueDiff() float64 { return d.TotalDiff - d.PropDiff }

// classifyDelay assigns the paper's six groups. x is the total mean
// difference, y the propagation difference; the sextants are delimited by
// the two axes and the line y = x.
func classifyDelay(x, y float64) DelayGroup {
	switch {
	case x > 0 && y > 0 && y <= x:
		return Group1 // alternate better in both; prop gain <= total gain
	case x > 0 && y > x:
		return Group2 // prop gain exceeds total: queuing worse on alternate
	case x > 0 && y <= 0:
		return Group6 // alternate better despite worse/equal propagation
	case x < 0 && y < 0 && y >= x:
		return Group4 // default better in both
	case x < 0 && y < x:
		return Group5 // prop deficit exceeds total: queuing better on alternate
	case x < 0 && y >= 0:
		return Group3 // default better despite worse/equal propagation
	default:
		return GroupUnclassified
	}
}

// DecomposeDelay selects best alternates by mean RTT, then splits each
// pair's difference into propagation (tenth-percentile) and queuing
// components (Section 7.2, Figure 16).
func (a *Analyzer) DecomposeDelay() ([]DelayDecomposition, error) {
	rs, err := a.Query(QuerySpec{Metric: MetricRTT})
	if err != nil {
		return nil, err
	}
	results := rs.Rows
	prop := map[dataset.PairKey]float64{}
	for _, k := range a.ds.PairKeys() {
		if v, ok := a.ds.PropagationDelay(k, PropagationQuantile); ok {
			prop[k] = v
		}
	}
	var out []DelayDecomposition
	for _, r := range results {
		defProp, ok := prop[r.Key]
		if !ok {
			continue
		}
		hopEnds := append([]topology.HostID{r.Key.Src}, r.Via...)
		hopEnds = append(hopEnds, r.Key.Dst)
		altProp := 0.0
		missing := false
		for i := 0; i+1 < len(hopEnds); i++ {
			v, ok := prop[dataset.PairKey{Src: hopEnds[i], Dst: hopEnds[i+1]}]
			if !ok {
				missing = true
				break
			}
			altProp += v
		}
		if missing {
			continue
		}
		d := DelayDecomposition{
			Key:       r.Key,
			TotalDiff: r.Improvement(),
			PropDiff:  defProp - altProp,
		}
		d.Group = classifyDelay(d.TotalDiff, d.PropDiff)
		out = append(out, d)
	}
	return out, nil
}

// GroupCensus counts decomposition points per group.
func GroupCensus(ds []DelayDecomposition) map[DelayGroup]int {
	out := map[DelayGroup]int{}
	for _, d := range ds {
		out[d.Group]++
	}
	return out
}
