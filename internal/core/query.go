package core

import (
	"fmt"
	"math"
	"sort"

	"pathsel/internal/dataset"
	"pathsel/internal/fanout"
	"pathsel/internal/netsim"
	"pathsel/internal/pathset"
	"pathsel/internal/stats"
	"pathsel/internal/tcpmodel"
	"pathsel/internal/topology"
)

// Exclusions names hosts the search must treat as absent: pairs with
// an excluded endpoint are skipped and excluded hosts never appear as
// intermediates. Hosts are validated against the dataset's host list.
type Exclusions struct {
	Hosts []topology.HostID
}

// mask resolves the exclusions to the graph's dense vertex mask, nil
// when empty.
func (e Exclusions) mask(hosts []topology.HostID, index map[topology.HostID]int) ([]bool, error) {
	if len(e.Hosts) == 0 {
		return nil, nil
	}
	m := make([]bool, len(hosts))
	for _, h := range e.Hosts {
		i, ok := index[h]
		if !ok {
			return nil, fmt.Errorf("core: excluded host %d is not in the dataset host list", h)
		}
		m[i] = true
	}
	return m, nil
}

// BandwidthQuery switches a Query to the Mathis-model bandwidth
// comparison (the paper's N2 analysis): per-path RTT and loss come
// from TCP transfer measurements, alternates are one hop, and paths
// rank by modeled throughput (descending) instead of metric cost.
type BandwidthQuery struct {
	Model tcpmodel.Model
	Mode  BandwidthMode
}

// QuerySpec describes one path-set query. The zero value (plus a
// Metric) reproduces the classic single-best-alternate analysis. K > 1
// returns ranked path sets; selecting among them (by latency, loss or
// disjointness) is the consumer's step, through a
// pathset.SelectionStrategy, as experiments.Multipath does.
type QuerySpec struct {
	// Metric drives edge weights and path composition. Ignored when
	// Bandwidth is set.
	Metric Metric
	// K is the number of alternate paths to find per pair, best first
	// (Yen's algorithm); 0 and 1 both mean the single best.
	K int
	// MaxVia bounds the number of intermediate hosts per alternate
	// (0 = unlimited). Bandwidth queries are always one-hop, as in the
	// paper.
	MaxVia int
	// Exclude removes hosts from the analysis entirely.
	Exclude Exclusions
	// Annotate forces full cross-metric annotation: every path gets
	// LatencyMs and Loss composed from the RTT and loss measurement
	// graphs, plus its interior AS set, even on plain K=1 queries. A
	// default path's annotation is its measured edge mean. Without it,
	// paths carry only the query metric's own annotation, and AS sets
	// only when K > 1.
	Annotate bool
	// Bucket, when non-nil, restricts every measured edge (annotation
	// graphs included) to the samples taken in one time-of-day bucket,
	// the paper's Section 6.3 breakdown. RTT and loss only; nil means
	// all samples.
	Bucket *netsim.Bucket
	// Bandwidth, when non-nil, switches to the Mathis-model bandwidth
	// query (see BandwidthQuery), which finds the single best one-hop
	// alternate per pair: K must be 0 or 1.
	Bandwidth *BandwidthQuery
}

// PairPathSet is one pair's query result: the measured default path
// and the selected alternate set, best first.
type PairPathSet struct {
	Key        dataset.PairKey
	Default    pathset.Path
	Alternates pathset.PathSet
}

// ResultSet is the outcome of one Query over every measured pair, in
// deterministic PairKeys order. Pairs without a measured default path
// or without any surviving alternate are omitted.
type ResultSet struct {
	Spec  QuerySpec
	Pairs []PairPathSet
}

// PairResults flattens the set to one row per pair: each pair's first
// alternate versus its default.
func (rs ResultSet) PairResults() []PairResult {
	out := make([]PairResult, 0, len(rs.Pairs))
	for _, p := range rs.Pairs {
		best, ok := p.Alternates.Best()
		if !ok {
			continue
		}
		out = append(out, PairResult{
			Key:          p.Key,
			Default:      p.Default.Summary,
			Alternate:    best.Summary,
			DefaultValue: p.Default.Value,
			AltValue:     best.Value,
			Via:          best.Via(),
		})
	}
	return out
}

// BandwidthResults flattens a bandwidth query to one row per pair:
// modeled default and best-alternate throughputs.
func (rs ResultSet) BandwidthResults() []BandwidthResult {
	out := make([]BandwidthResult, 0, len(rs.Pairs))
	for _, p := range rs.Pairs {
		best, ok := p.Alternates.Best()
		if !ok || len(best.Hops) < 3 {
			continue
		}
		out = append(out, BandwidthResult{
			Key:        p.Key,
			DefaultKBs: p.Default.Value,
			AltKBs:     best.Value,
			Via:        best.Hops[1],
		})
	}
	return out
}

// Query runs one path-set query. Output is in PairKeys order and
// bit-identical at any worker count: pairs are prefiltered
// sequentially, searched in parallel into per-pair slots, and
// compacted in order; every per-pair computation (Yen's candidate
// ordering, annotation) is a deterministic function of the frozen
// graph.
func (a *Analyzer) Query(spec QuerySpec) (ResultSet, error) {
	if spec.K < 0 {
		return ResultSet{}, fmt.Errorf("core: negative K %d", spec.K)
	}
	if spec.Bandwidth != nil {
		if spec.Bucket != nil {
			return ResultSet{}, fmt.Errorf("core: bandwidth queries take no time-of-day bucket")
		}
		return a.queryBandwidth(spec)
	}
	g, err := a.queryGraph(spec.Metric, spec.Bucket)
	if err != nil {
		return ResultSet{}, err
	}
	excluded, err := spec.Exclude.mask(g.hosts, g.index)
	if err != nil {
		return ResultSet{}, err
	}
	ann, err := a.annotationsFor(spec)
	if err != nil {
		return ResultSet{}, err
	}
	workers := a.workers()
	k := spec.K
	if k < 1 {
		k = 1
	}
	var pairs []PairPathSet
	if k == 1 {
		// The single-best case routes through the shared-source-tree
		// batch engine, which is cheaper than Yen's algorithm at K=1.
		results, err := a.bestAlternatesWith(g, spec.Metric, spec.MaxVia, excluded, workers)
		if err != nil {
			return ResultSet{}, err
		}
		// Every pair's hop slices and one-path set come from three
		// slabs; the 3-index slices cap each piece so an append by a
		// consumer reallocates instead of overwriting a neighbour.
		nHops := 0
		for _, r := range results {
			nHops += len(r.Via) + 2
		}
		altHops := make([]topology.HostID, 0, nHops)
		defHops := make([]topology.HostID, 2*len(results))
		alts := make([]pathset.Path, len(results))
		pairs = make([]PairPathSet, len(results))
		for i, r := range results {
			start := len(altHops)
			altHops = append(altHops, r.Key.Src)
			altHops = append(altHops, r.Via...)
			altHops = append(altHops, r.Key.Dst)
			hops := altHops[start:len(altHops):len(altHops)]
			alts[i] = pathset.Path{
				Hops:    hops,
				Weight:  a.hopsWeight(g, hops),
				Value:   r.AltValue,
				Summary: r.Alternate,
			}
			a.annotatePath(g, spec.Metric, ann, &alts[i])
			def := defHops[2*i : 2*i+2 : 2*i+2]
			def[0], def[1] = r.Key.Src, r.Key.Dst
			pairs[i] = PairPathSet{
				Key:        r.Key,
				Default:    a.defaultPath(g, spec.Metric, ann, r, def),
				Alternates: pathset.PathSet{Paths: alts[i : i+1 : i+1]},
			}
		}
	} else {
		pairs, err = a.queryK(g, spec, k, excluded, ann, workers)
		if err != nil {
			return ResultSet{}, err
		}
	}
	return ResultSet{Spec: spec, Pairs: pairs}, nil
}

// queryK is the K>1 engine: per-pair Yen searches sharded across
// workers, each with a persistent scratch arena and yenState.
func (a *Analyzer) queryK(g *graph, spec QuerySpec, k int, excluded []bool, ann annotations, workers int) ([]PairPathSet, error) {
	g.freeze()
	keys := a.ds.PairKeys()
	type pairJob struct {
		key    dataset.PairKey
		si, di int32
	}
	jobs := make([]pairJob, 0, len(keys))
	for _, key := range keys {
		si, ok1 := g.index[key.Src]
		di, ok2 := g.index[key.Dst]
		if !ok1 || !ok2 {
			continue
		}
		if excluded != nil && (excluded[si] || excluded[di]) {
			continue
		}
		jobs = append(jobs, pairJob{key: key, si: int32(si), di: int32(di)})
	}
	slots := make([]PairPathSet, len(jobs))
	valid := make([]bool, len(jobs))
	wa := newWorkerArenas(g, workers)
	defer wa.release()
	ys := make([]*yenState, workers)
	err := fanout.For(a.context(), workers, len(jobs), func(w, i int) error {
		j := jobs[i]
		direct, found := g.directEdge(int(j.si), int(j.di))
		if !found {
			return nil
		}
		y := ys[w]
		if y == nil {
			y = newYenState(len(g.hosts), excluded)
			ys[w] = y
		}
		vertexPaths := g.kAlternatesInto(wa.pair(w), y, int(j.si), int(j.di), k, spec.MaxVia)
		if len(vertexPaths) == 0 {
			return nil
		}
		set := pathset.PathSet{Paths: make([]pathset.Path, 0, len(vertexPaths))}
		for _, vp := range vertexPaths {
			p, err := a.composedPath(g, spec.Metric, ann, vp)
			if err != nil {
				return err
			}
			set.Paths = append(set.Paths, p)
		}
		def := PairResult{Key: j.key, Default: direct.summary, DefaultValue: direct.value}
		slots[i] = PairPathSet{
			Key:        j.key,
			Default:    a.defaultPath(g, spec.Metric, ann, def, []topology.HostID{j.key.Src, j.key.Dst}),
			Alternates: set,
		}
		valid[i] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]PairPathSet, 0, len(jobs))
	for i, ok := range valid {
		if ok {
			out = append(out, slots[i])
		}
	}
	return out, nil
}

// annotations bundles the optional cross-metric graphs and the AS
// toggle resolved once per query.
type annotations struct {
	rtt, loss *graph // non-nil only under Annotate
	ases      bool
}

// annotationsFor resolves the annotation plan: AS sets under Annotate
// or for K > 1 path sets, cross-metric graphs only under Annotate and
// only for the metrics the query's own value does not already fill.
func (a *Analyzer) annotationsFor(spec QuerySpec) (annotations, error) {
	ann := annotations{ases: spec.Annotate || spec.K > 1}
	if !spec.Annotate {
		return ann, nil
	}
	var err error
	if spec.Metric != MetricRTT {
		if ann.rtt, err = a.queryGraph(MetricRTT, spec.Bucket); err != nil {
			return annotations{}, err
		}
	}
	if spec.Metric != MetricLoss {
		if ann.loss, err = a.queryGraph(MetricLoss, spec.Bucket); err != nil {
			return annotations{}, err
		}
	}
	return ann, nil
}

// composedPath materializes one Yen vertex path as a pathset.Path.
func (a *Analyzer) composedPath(g *graph, metric Metric, ann annotations, vp []int) (pathset.Path, error) {
	value, sum, err := g.composePath(metric, vp)
	if err != nil {
		return pathset.Path{}, err
	}
	hops := make([]topology.HostID, len(vp))
	for i, v := range vp {
		hops[i] = g.hosts[v]
	}
	p := pathset.Path{Hops: hops, Weight: g.pathWeight(vp), Value: value, Summary: sum}
	a.annotatePath(g, metric, ann, &p)
	return p, nil
}

// defaultPath builds the pair's default (direct) path from a
// PairResult row over the caller's two-element hop slice.
func (a *Analyzer) defaultPath(g *graph, metric Metric, ann annotations, r PairResult, hops []topology.HostID) pathset.Path {
	p := pathset.Path{
		Hops:    hops,
		Value:   r.DefaultValue,
		Summary: r.Default,
	}
	if metric == MetricLoss {
		p.Weight = lossWeight(r.DefaultValue)
	} else {
		p.Weight = r.DefaultValue
	}
	a.annotatePath(g, metric, ann, &p)
	return p
}

// hopsWeight computes the stored-edge weight sum for a host sequence.
func (a *Analyzer) hopsWeight(g *graph, hops []topology.HostID) float64 {
	w := 0.0
	for i := 0; i+1 < len(hops); i++ {
		si, ok1 := g.index[hops[i]]
		di, ok2 := g.index[hops[i+1]]
		if !ok1 || !ok2 {
			return math.Inf(1)
		}
		e, found := g.directEdge(si, di)
		if !found {
			return math.Inf(1)
		}
		w += e.weight
	}
	return w
}

// annotatePath fills the cross-metric and AS annotations per the
// query's plan. The metric's own value always populates its slot;
// the other metric composes from its measurement graph only under
// Annotate (NaN when a hop is unmeasured there).
func (a *Analyzer) annotatePath(g *graph, metric Metric, ann annotations, p *pathset.Path) {
	p.LatencyMs, p.Loss = math.NaN(), math.NaN()
	switch metric {
	case MetricRTT:
		p.LatencyMs = p.Value
	case MetricLoss:
		p.Loss = p.Value
	}
	if ann.rtt != nil && math.IsNaN(p.LatencyMs) {
		if v, ok := a.composeOn(ann.rtt, MetricRTT, p.Hops); ok {
			p.LatencyMs = v
		}
	}
	if ann.loss != nil && math.IsNaN(p.Loss) {
		if v, ok := a.composeOn(ann.loss, MetricLoss, p.Hops); ok {
			p.Loss = v
		}
	}
	if ann.ases {
		p.ASes = a.pathASes(p.Hops)
	}
}

// composeOn evaluates a host path on another metric's graph. A
// one-hop path reads its measured edge value: composing it would round
// a loss rate through its clamped weight (a 100%-loss edge would come
// back as 0.999999).
func (a *Analyzer) composeOn(g *graph, metric Metric, hops []topology.HostID) (float64, bool) {
	vp := make([]int, len(hops))
	for i, h := range hops {
		v, ok := g.index[h]
		if !ok {
			return 0, false
		}
		vp[i] = v
	}
	if len(vp) == 2 {
		e, ok := g.directEdge(vp[0], vp[1])
		return e.value, ok
	}
	value, _, err := g.composePath(metric, vp)
	if err != nil {
		return 0, false
	}
	return value, true
}

// pathASes unions the traceroute-observed ASes of a path's measured
// hops and strips the two endpoint hosts' own ASes (identified from
// the first and last hop AS paths), leaving the interior — the set
// AS-level disjointness compares, per Qazi & Moors. Sorted ascending.
func (a *Analyzer) pathASes(hops []topology.HostID) []topology.ASN {
	if len(hops) < 2 {
		return nil
	}
	var all []topology.ASN
	seen := map[topology.ASN]bool{}
	var srcAS, dstAS topology.ASN
	haveSrc, haveDst := false, false
	for i := 0; i+1 < len(hops); i++ {
		p := a.ds.Paths[dataset.PairKey{Src: hops[i], Dst: hops[i+1]}]
		if p == nil || len(p.ASPath) == 0 {
			continue
		}
		if i == 0 {
			srcAS, haveSrc = p.ASPath[0], true
		}
		if i+2 == len(hops) {
			dstAS, haveDst = p.ASPath[len(p.ASPath)-1], true
		}
		for _, asn := range p.ASPath {
			if !seen[asn] {
				seen[asn] = true
				all = append(all, asn)
			}
		}
	}
	out := all[:0]
	for _, asn := range all {
		if (haveSrc && asn == srcAS) || (haveDst && asn == dstAS) {
			continue
		}
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// queryBandwidth is the Mathis-model branch of Query: per pair, the
// single best one-hop relay by modeled throughput, scanned in dataset
// host order so the earliest host wins ties.
func (a *Analyzer) queryBandwidth(spec QuerySpec) (ResultSet, error) {
	if spec.K > 1 {
		return ResultSet{}, fmt.Errorf("core: bandwidth queries find the single best alternate, not K=%d", spec.K)
	}
	bq := spec.Bandwidth
	hosts := a.ds.Hosts
	n := len(hosts)
	index := make(map[topology.HostID]int, n)
	for i, h := range hosts {
		index[h] = i
	}
	excluded, err := spec.Exclude.mask(hosts, index)
	if err != nil {
		return ResultSet{}, err
	}
	// Per-path transfer means, dense over host indices; ok marks a
	// measured path.
	type pathStat struct {
		rtt, loss float64
		ok        bool
	}
	st := make([]pathStat, n*n)
	keys := a.ds.PairKeys()
	for _, key := range keys {
		si, ok1 := index[key.Src]
		di, ok2 := index[key.Dst]
		if !ok1 || !ok2 {
			continue
		}
		if rtt, loss, ok := a.ds.TransferMeans(key); ok {
			st[si*n+di] = pathStat{rtt: rtt.Mean, loss: loss.Mean, ok: true}
		}
	}
	slots := make([]PairPathSet, len(keys))
	err = fanout.For(a.context(), a.workers(), len(keys), func(_, i int) error {
		key := keys[i]
		si, ok1 := index[key.Src]
		di, ok2 := index[key.Dst]
		if !ok1 || !ok2 || (excluded != nil && (excluded[si] || excluded[di])) {
			return nil
		}
		direct := st[si*n+di]
		if !direct.ok {
			return nil
		}
		defBW, err := bq.Model.BandwidthKBs(direct.rtt, direct.loss)
		if err != nil {
			return fmt.Errorf("core: default bandwidth for %v: %w", key, err)
		}
		bestBW, bestVia := math.Inf(-1), -1
		var bestRTT, bestLoss float64
		for v := range hosts {
			if v == si || v == di || (excluded != nil && excluded[v]) {
				continue
			}
			s1, s2 := st[si*n+v], st[v*n+di]
			if !s1.ok || !s2.ok {
				continue
			}
			rtt := s1.rtt + s2.rtt
			var loss float64
			switch bq.Mode {
			case Optimistic:
				loss = math.Max(s1.loss, s2.loss)
			case Pessimistic:
				loss = 1 - (1-s1.loss)*(1-s2.loss)
			default:
				return fmt.Errorf("core: unknown bandwidth mode %v", bq.Mode)
			}
			bw, err := bq.Model.BandwidthKBs(rtt, loss)
			if err != nil {
				return fmt.Errorf("core: alternate bandwidth for %v via %d: %w", key, hosts[v], err)
			}
			if bw > bestBW {
				bestBW, bestVia, bestRTT, bestLoss = bw, v, rtt, loss
			}
		}
		if bestVia < 0 {
			return nil
		}
		// The default's and the alternate's hops share one slice, each
		// capped at its own length.
		hops := []topology.HostID{key.Src, key.Dst, key.Src, hosts[bestVia], key.Dst}
		def := pathset.Path{
			Hops:      hops[0:2:2],
			Weight:    -defBW,
			Value:     defBW,
			Summary:   stats.Summary{Mean: defBW},
			LatencyMs: direct.rtt,
			Loss:      direct.loss,
		}
		alt := pathset.Path{
			Hops:      hops[2:5:5],
			Weight:    -bestBW,
			Value:     bestBW,
			Summary:   stats.Summary{Mean: bestBW},
			LatencyMs: bestRTT,
			Loss:      bestLoss,
		}
		if spec.Annotate {
			def.ASes = a.pathASes(def.Hops)
			alt.ASes = a.pathASes(alt.Hops)
		}
		slots[i] = PairPathSet{Key: key, Default: def, Alternates: pathset.PathSet{Paths: []pathset.Path{alt}}}
		return nil
	})
	if err != nil {
		return ResultSet{}, err
	}
	// Compact the pairs that found an alternate, in PairKeys order.
	pairs := slots[:0]
	for _, p := range slots {
		if !p.Alternates.Empty() {
			pairs = append(pairs, p)
		}
	}
	return ResultSet{Spec: spec, Pairs: pairs}, nil
}
