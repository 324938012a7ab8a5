package core

import (
	"fmt"
	"math"
	"sort"

	"pathsel/internal/dataset"
	"pathsel/internal/fanout"
	"pathsel/internal/netsim"
	"pathsel/internal/pathset"
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

// QuerySpec describes one query. The zero value (plus a Metric)
// reproduces the classic single-best-alternate analysis, one row per
// pair. K > 1 also returns ranked path sets; selecting among them (by
// latency, loss or disjointness) is the consumer's step, through a
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
	// Annotate asks for path sets with full cross-metric annotation,
	// even at K=1: every path gets LatencyMs and Loss composed from the
	// RTT and loss measurement graphs. A default path's annotation is
	// its measured edge mean. Without it, paths carry only the query
	// metric's own annotation. Paths carry their interior AS sets when
	// K > 1, annotated or not. Graph queries only.
	Annotate bool
	// Bucket, when non-nil, restricts every measured edge (annotation
	// graphs included) to the samples taken in one time-of-day bucket,
	// the paper's Section 6.3 breakdown. RTT and loss only; nil means
	// all samples.
	Bucket *netsim.Bucket
	// Bandwidth, when non-nil, switches to the Mathis-model bandwidth
	// query (see BandwidthQuery), which finds the single best one-hop
	// alternate per pair: K must be 0 or 1, and Bucket and Annotate
	// unset.
	Bandwidth *BandwidthQuery
}

// PairPathSet is one pair's path-set result: the measured default
// path and the selected alternate set, best first.
type PairPathSet struct {
	Key        dataset.PairKey
	Default    pathset.Path
	Alternates pathset.PathSet
}

// ResultSet is the outcome of one Query over every measured pair, in
// deterministic PairKeys order. Pairs without a measured default path
// or without any surviving alternate are omitted. Each field is filled
// by the queries that produce it and nil otherwise:
//   - Rows, by every graph query: one row per pair, its best alternate
//     against its default (at K > 1, the head of each path set);
//   - Bandwidth, by bandwidth queries;
//   - Pairs, by the queries that ask for paths: K > 1, or Annotate.
type ResultSet struct {
	Spec      QuerySpec
	Rows      []PairResult
	Bandwidth []BandwidthResult
	Pairs     []PairPathSet
}

// Query runs one query. Output is in PairKeys order and bit-identical
// at any worker count: pairs are prefiltered sequentially, searched in
// parallel into per-pair slots, and compacted in order; every per-pair
// computation (Yen's candidate ordering, annotation) is a
// deterministic function of the frozen graph.
func (a *Analyzer) Query(spec QuerySpec) (ResultSet, error) {
	if spec.K < 0 {
		return ResultSet{}, fmt.Errorf("core: negative K %d", spec.K)
	}
	if spec.Bandwidth != nil {
		if spec.Bucket != nil {
			return ResultSet{}, fmt.Errorf("core: bandwidth queries take no time-of-day bucket")
		}
		if spec.Annotate {
			return ResultSet{}, fmt.Errorf("core: bandwidth queries take no annotation")
		}
		rows, err := a.queryBandwidth(spec)
		if err != nil {
			return ResultSet{}, err
		}
		return ResultSet{Spec: spec, Bandwidth: rows}, nil
	}
	g, err := a.queryGraph(spec.Metric, spec.Bucket)
	if err != nil {
		return ResultSet{}, err
	}
	excluded, err := spec.Exclude.mask(g.hosts, g.index)
	if err != nil {
		return ResultSet{}, err
	}
	rs := ResultSet{Spec: spec}
	if spec.K <= 1 && !spec.Annotate {
		// The single-best case routes through the shared-source-tree
		// batch engine, which is cheaper than Yen's algorithm at K=1.
		if rs.Rows, err = a.bestAlternatesWith(g, spec.Metric, spec.MaxVia, excluded, a.workers()); err != nil {
			return ResultSet{}, err
		}
		return rs, nil
	}
	ann, err := a.annotationsFor(spec)
	if err != nil {
		return ResultSet{}, err
	}
	if rs.Rows, rs.Pairs, err = a.queryK(g, spec, max(spec.K, 1), excluded, ann); err != nil {
		return ResultSet{}, err
	}
	return rs, nil
}

// queryK is the path-set engine: per-pair Yen searches sharded across
// workers, each with a persistent scratch arena and yenState. Yen's
// first path is the single-best search's, so each set's head row
// equals the batch engine's row for the pair.
func (a *Analyzer) queryK(g *graph, spec QuerySpec, k int, excluded []bool, ann annotations) ([]PairResult, []PairPathSet, error) {
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
	rows := make([]PairResult, len(jobs))
	sets := make([]PairPathSet, len(jobs))
	valid := make([]bool, len(jobs))
	workers := a.workers()
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
		best := set.Paths[0]
		rows[i] = PairResult{
			Key:          j.key,
			Default:      direct.summary,
			Alternate:    best.Summary,
			DefaultValue: direct.value,
			AltValue:     best.Value,
			Via:          best.Via(),
		}
		sets[i] = PairPathSet{
			Key:        j.key,
			Default:    a.defaultPath(g, spec.Metric, ann, direct, []topology.HostID{j.key.Src, j.key.Dst}),
			Alternates: set,
		}
		valid[i] = true
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Compact in place: the write index never passes the read index.
	n := 0
	for i, ok := range valid {
		if ok {
			rows[n], sets[n] = rows[i], sets[i]
			n++
		}
	}
	return rows[:n], sets[:n], nil
}

// annotations bundles the optional cross-metric graphs and the AS
// toggle resolved once per query.
type annotations struct {
	rtt, loss *graph // non-nil only under Annotate
	ases      bool
}

// annotationsFor resolves the annotation plan: AS sets for K > 1 path
// sets (their one reader is AS-level disjointness), cross-metric graphs
// only under Annotate and only for the metrics the query's own value
// does not already fill.
func (a *Analyzer) annotationsFor(spec QuerySpec) (annotations, error) {
	ann := annotations{ases: spec.K > 1}
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

// defaultPath builds the pair's default (direct) path from its
// measured edge over the caller's two-element hop slice.
func (a *Analyzer) defaultPath(g *graph, metric Metric, ann annotations, direct edge, hops []topology.HostID) pathset.Path {
	p := pathset.Path{Hops: hops, Weight: direct.weight, Value: direct.value, Summary: direct.summary}
	a.annotatePath(g, metric, ann, &p)
	return p
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
func (a *Analyzer) queryBandwidth(spec QuerySpec) ([]BandwidthResult, error) {
	if spec.K > 1 {
		return nil, fmt.Errorf("core: bandwidth queries find the single best alternate, not K=%d", spec.K)
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
		return nil, err
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
	results := make([]BandwidthResult, len(keys))
	valid := make([]bool, len(keys))
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
				bestBW, bestVia = bw, v
			}
		}
		if bestVia < 0 {
			return nil
		}
		results[i] = BandwidthResult{Key: key, DefaultKBs: defBW, AltKBs: bestBW, Via: hosts[bestVia]}
		valid[i] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Compact in place, in PairKeys order.
	out := results[:0]
	for i, ok := range valid {
		if ok {
			out = append(out, results[i])
		}
	}
	return out, nil
}
