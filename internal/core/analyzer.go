package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"pathsel/internal/dataset"
	"pathsel/internal/fanout"
	"pathsel/internal/netsim"
	"pathsel/internal/stats"
	"pathsel/internal/topology"
)

// PairResult compares one default path with its best synthetic alternate.
type PairResult struct {
	Key dataset.PairKey
	// Default and Alternate are the metric summaries (mean in natural
	// units, with variance information for confidence intervals).
	Default, Alternate stats.Summary
	// DefaultValue and AltValue are the metric values in natural units.
	DefaultValue, AltValue float64
	// Via lists the intermediate hosts of the best alternate, in order.
	Via []topology.HostID
}

// Improvement is default minus alternate: positive when the alternate
// path is superior for cost metrics (RTT, loss, propagation delay).
func (r PairResult) Improvement() float64 { return r.DefaultValue - r.AltValue }

// Ratio is default over alternate: above 1 when the alternate is
// superior (the paper's Figure 2).
func (r PairResult) Ratio() float64 {
	//repolint:allow floateq -- exact-zero guard before division; any nonzero value divides fine
	if r.AltValue == 0 {
		return math.Inf(1)
	}
	return r.DefaultValue / r.AltValue
}

// Analyzer runs the paper's comparisons over one dataset.
type Analyzer struct {
	ds *dataset.Dataset

	// Concurrency caps the worker goroutines the engine shards pair and
	// candidate searches across: 0 (the default) means one worker per
	// available CPU, 1 forces the sequential engine, and any other
	// positive value is used as-is. Results are bit-identical for every
	// setting; the knob only trades wall-clock time for cores.
	Concurrency int

	// ctx, when set via WithContext, bounds every analysis entry point:
	// the engine stops handing out work and returns ctx.Err() as soon as
	// the context is cancelled. A nil ctx means never cancelled.
	ctx context.Context

	// graphMu guards the per-metric graph cache. Building a graph
	// touches every pair's sample set, so analyses that revisit a
	// metric (figure drivers, the greedy-removal loop, benchmarks)
	// reuse the build; the cache is dropped when the dataset's
	// revision or pair count changes.
	graphMu   sync.Mutex
	graphs    map[Metric]*graph
	graphsRev int64
	graphsLen int
}

// graphFor returns the measurement graph for a metric, building and
// caching it on first use.
func (a *Analyzer) graphFor(metric Metric) (*graph, error) {
	a.graphMu.Lock()
	defer a.graphMu.Unlock()
	if rev, n := a.ds.Revision(), len(a.ds.Paths); a.graphs == nil || rev != a.graphsRev || n != a.graphsLen {
		a.graphs = map[Metric]*graph{}
		a.graphsRev, a.graphsLen = rev, n
	}
	if g, ok := a.graphs[metric]; ok {
		return g, nil
	}
	g, err := buildGraph(a.ds, metric, nil)
	if err != nil {
		return nil, err
	}
	a.graphs[metric] = g
	return g, nil
}

// queryGraph returns the graph a query searches: the cached per-metric
// graph, or a bucket-restricted one built for this query alone (the
// bucketed exhibits are memoized per exhibit, so caching the graph too
// would only grow the serving heap).
func (a *Analyzer) queryGraph(metric Metric, b *netsim.Bucket) (*graph, error) {
	if b == nil {
		return a.graphFor(metric)
	}
	return buildGraph(a.ds, metric, b)
}

// NewAnalyzer wraps a dataset.
func NewAnalyzer(ds *dataset.Dataset) *Analyzer { return &Analyzer{ds: ds} }

// WithConcurrency sets the Concurrency knob and returns the analyzer,
// for chaining at construction sites.
func (a *Analyzer) WithConcurrency(n int) *Analyzer {
	a.Concurrency = n
	return a
}

// WithContext binds the analyzer's entry points to ctx and returns the
// analyzer, for chaining: a long-running analysis (Query,
// AnalyzeEpisodes, GreedyRemoveTop, the bandwidth searches) aborts with
// ctx.Err() when ctx is cancelled, e.g. because an HTTP client
// disconnected or a per-request deadline fired.
func (a *Analyzer) WithContext(ctx context.Context) *Analyzer {
	a.ctx = ctx
	return a
}

// context resolves the bound context (nil means never cancelled).
func (a *Analyzer) context() context.Context {
	if a.ctx != nil {
		return a.ctx
	}
	//repolint:allow ctxflow -- documented fallback: an unbound Analyzer is never cancelled
	return context.Background()
}

// workers resolves the Concurrency knob to a worker count.
func (a *Analyzer) workers() int { return fanout.Workers(a.Concurrency) }

// Dataset returns the underlying dataset.
func (a *Analyzer) Dataset() *dataset.Dataset { return a.ds }

// workerArenas hands each worker of a batched analysis a persistent
// pair of search scratches — one for source trees, one for per-pair
// fallback searches — borrowed once from the graph's pool for the whole
// shard instead of bouncing through the pool per pair.
type workerArenas struct {
	g      *graph
	arenas []struct{ tree, pair *searchScratch }
}

func newWorkerArenas(g *graph, workers int) *workerArenas {
	return &workerArenas{g: g, arenas: make([]struct{ tree, pair *searchScratch }, workers)}
}

func (wa *workerArenas) tree(w int) *searchScratch {
	if wa.arenas[w].tree == nil {
		wa.arenas[w].tree = wa.g.scratch.Get().(*searchScratch)
	}
	return wa.arenas[w].tree
}

func (wa *workerArenas) pair(w int) *searchScratch {
	if wa.arenas[w].pair == nil {
		wa.arenas[w].pair = wa.g.scratch.Get().(*searchScratch)
	}
	return wa.arenas[w].pair
}

func (wa *workerArenas) release() {
	for _, ar := range wa.arenas {
		if ar.tree != nil {
			wa.g.scratch.Put(ar.tree)
		}
		if ar.pair != nil {
			wa.g.scratch.Put(ar.pair)
		}
	}
}

// bestAlternatesWith is the engine under single-best Query: pairs are
// prefiltered sequentially, searched one source run per task across the
// given number of workers with results written into per-pair slots,
// then compacted in pair-key order — so the output is byte-identical for
// any worker count.
func (a *Analyzer) bestAlternatesWith(g *graph, metric Metric, maxVia int, excluded []bool, workers int) ([]PairResult, error) {
	g.freeze() // staged callers pack here, before the concurrent fan-out
	keys := a.ds.PairKeys()
	// Jobs are in PairKeys order, so a source's pairs are consecutive:
	// runs[r] is the first job of the r-th source run.
	jobs := make([]dataset.PairKey, 0, len(keys))
	dsts := make([]int32, 0, len(keys))
	runs := make([]int, 0, len(g.hosts)+1)
	for _, k := range keys {
		si, ok1 := g.index[k.Src]
		di, ok2 := g.index[k.Dst]
		if !ok1 || !ok2 || excluded != nil && (excluded[si] || excluded[di]) {
			continue
		}
		if len(jobs) == 0 || jobs[len(jobs)-1].Src != k.Src {
			runs = append(runs, len(jobs))
		}
		jobs = append(jobs, k)
		dsts = append(dsts, int32(di))
	}
	runs = append(runs, len(jobs))
	results := make([]PairResult, len(jobs))
	valid := make([]bool, len(jobs))
	wa := newWorkerArenas(g, workers)
	defer wa.release()
	err := fanout.For(a.context(), workers, len(runs)-1, func(w, r int) error {
		start, end := runs[r], runs[r+1]
		src := g.index[jobs[start].Src]
		return g.alternatesFrom(src, dsts[start:end], maxVia, excluded, wa, w, func(j int, direct edge, path []int) error {
			altValue, altSum, err := g.composePath(metric, path)
			if err != nil {
				return err
			}
			res := PairResult{
				Key:          jobs[start+j],
				Default:      direct.summary,
				Alternate:    altSum,
				DefaultValue: direct.value,
				AltValue:     altValue,
				Via:          make([]topology.HostID, len(path)-2),
			}
			for i, v := range path[1 : len(path)-1] {
				res.Via[i] = g.hosts[v]
			}
			results[start+j], valid[start+j] = res, true
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	// Compact in place: the write index never passes the read index.
	out := results[:0]
	for i, ok := range valid {
		if ok {
			out = append(out, results[i])
		}
	}
	return out, nil
}

// ImprovementCDF builds the CDF of default-minus-alternate differences
// from pair results (the paper's Figures 1, 3, 15).
func ImprovementCDF(results []PairResult) stats.CDF {
	vals := make([]float64, len(results))
	for i, r := range results {
		vals[i] = r.Improvement()
	}
	return stats.NewCDF(vals)
}

// RatioCDF builds the CDF of default-over-alternate ratios (Figure 2).
func RatioCDF(results []PairResult) stats.CDF {
	var vals []float64
	for _, r := range results {
		if v := r.Ratio(); !math.IsInf(v, 0) && !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	return stats.NewCDF(vals)
}

// BandwidthMode selects how loss rates compose along a synthetic path
// for the bandwidth analysis (Section 5, Figures 4-5).
type BandwidthMode int

const (
	// Optimistic uses the maximum hop loss rate: the sending TCP is
	// assumed responsible for all observed loss, so the worst hop is
	// the bottleneck.
	Optimistic BandwidthMode = iota
	// Pessimistic composes hop losses as independent: none of the
	// observed loss is caused by the sender.
	Pessimistic
)

// String implements fmt.Stringer.
func (m BandwidthMode) String() string {
	switch m {
	case Optimistic:
		return "optimistic"
	case Pessimistic:
		return "pessimistic"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// BandwidthResult compares Mathis-model bandwidth of default and best
// one-hop alternate paths.
type BandwidthResult struct {
	Key dataset.PairKey
	// DefaultKBs and AltKBs are modeled throughputs in kB/s.
	DefaultKBs, AltKBs float64
	// Via is the intermediate host of the best alternate.
	Via topology.HostID
}

// Improvement is alternate minus default: positive when the alternate
// offers more bandwidth (Figure 4 plots this difference).
func (r BandwidthResult) Improvement() float64 { return r.AltKBs - r.DefaultKBs }

// Ratio is alternate over default (Figure 5).
func (r BandwidthResult) Ratio() float64 {
	//repolint:allow floateq -- exact-zero guard before division; any nonzero value divides fine
	if r.DefaultKBs == 0 {
		return math.Inf(1)
	}
	return r.AltKBs / r.DefaultKBs
}

// MedianResult compares medians (composed by convolution) alongside
// means for the same pair, both restricted to one-hop alternates
// (Section 6.1, Figure 6).
type MedianResult struct {
	Key dataset.PairKey
	// MeanImprovement is default mean minus best-alternate mean.
	MeanImprovement float64
	// MedianImprovement is default median minus best-alternate median,
	// where the alternate's distribution is the convolution of its two
	// hops' sample distributions.
	MedianImprovement float64
}

// BestMedianAlternates runs the mean-versus-median robustness check on
// round-trip time. Both statistics use one-hop alternates "to keep the
// computational costs reasonable"; each statistic selects its own best
// alternate. The mean side is a one-hop Query; the median side
// enumerates relays and convolves their hop distributions.
func (a *Analyzer) BestMedianAlternates() ([]MedianResult, error) {
	rs, err := a.Query(QuerySpec{Metric: MetricRTT, MaxVia: 1})
	if err != nil {
		return nil, err
	}
	// Precompute each path's median and its distribution thinned for
	// convolution, once rather than per convolution.
	type pathDist struct {
		median float64
		thin   stats.Dist
	}
	dists := map[dataset.PairKey]pathDist{}
	for _, k := range a.ds.PairKeys() {
		d, ok := a.ds.RTTDist(k)
		if !ok {
			continue
		}
		m, err := d.Median()
		if err != nil {
			continue
		}
		dists[k] = pathDist{median: m, thin: d.Thin(stats.ConvolutionPoints)}
	}
	pairs := rs.Pairs
	results := make([]MedianResult, len(pairs))
	valid := make([]bool, len(pairs))
	workers := a.workers()
	scratch := make([][]float64, workers) // cross sums, one buffer per worker
	err = fanout.For(a.context(), workers, len(pairs), func(w, i int) error {
		p := pairs[i]
		k := p.Key
		directDist, ok := dists[k]
		if !ok {
			return nil
		}
		bestMedian := math.Inf(1)
		foundMedian := false
		for _, via := range a.ds.Hosts {
			if via == k.Src || via == k.Dst {
				continue
			}
			d1, ok1 := dists[dataset.PairKey{Src: k.Src, Dst: via}]
			d2, ok2 := dists[dataset.PairKey{Src: via, Dst: k.Dst}]
			if !ok1 || !ok2 {
				continue
			}
			m, buf, err := d1.thin.ConvolvedMedian(d2.thin, scratch[w])
			scratch[w] = buf
			if err != nil {
				continue
			}
			if m < bestMedian {
				bestMedian = m
				foundMedian = true
			}
		}
		if !foundMedian {
			return nil
		}
		results[i] = MedianResult{
			Key:               k,
			MeanImprovement:   p.Default.Value - p.Alternates.Paths[0].Value,
			MedianImprovement: directDist.median - bestMedian,
		}
		valid[i] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]MedianResult, 0, len(pairs))
	for i, ok := range valid {
		if ok {
			out = append(out, results[i])
		}
	}
	return out, nil
}

// EpisodeAnalysis is the UW4-A simultaneous-measurement comparison
// (Section 6.4, Figure 11).
type EpisodeAnalysis struct {
	// PairAveraged has, per pair, the mean across episodes of
	// (default - best alternate) within each episode.
	PairAveraged []float64
	// Unaveraged has one entry per (pair, episode).
	Unaveraged []float64
	// RelayChurn is, per pair with at least two episode observations,
	// the fraction of consecutive episodes whose best alternate used a
	// different first relay — quantifying the paper's observation that
	// "not only are different alternate paths being selected as best in
	// each episode, the difference ... is highly variable".
	RelayChurn []float64
}

// AnalyzeEpisodes computes, within each episode, the best alternate path
// using only that episode's simultaneous measurements, and aggregates the
// per-episode differences both pair-averaged and raw. Episodes are
// independent, so they are analyzed concurrently; processing streams
// through fixed-size chunks whose outputs merge in episode order, so the
// aggregation is identical to the sequential one while peak memory stays
// bounded by the chunk, the per-worker graphs, and the running
// aggregates — not by the episode count.
func (a *Analyzer) AnalyzeEpisodes() (EpisodeAnalysis, error) {
	if len(a.ds.Episodes) == 0 {
		return EpisodeAnalysis{}, fmt.Errorf("core: dataset %q has no episodes", a.ds.Name)
	}
	index := map[topology.HostID]int{}
	var hosts []topology.HostID
	for _, h := range a.ds.Hosts {
		index[h] = len(hosts)
		hosts = append(hosts, h)
	}
	workers := a.workers()
	// Per-episode outputs, aligned: keys[i], diffs[i], relays[i]. The
	// chunk's slots (and their slices) are reused across chunks.
	type episodeOut struct {
		keys   []dataset.PairKey
		diffs  []float64
		relays []topology.HostID
	}
	chunk := workers * 4
	if chunk < 16 {
		chunk = 16
	}
	if chunk > len(a.ds.Episodes) {
		chunk = len(a.ds.Episodes)
	}
	outs := make([]episodeOut, chunk)
	// One graph per worker, rebuilt in place per episode, with its search
	// arenas and key and destination buffers: the CSR and staging slabs
	// are retained across resets, so steady-state episode processing
	// allocates little beyond the found paths.
	type episodeWorker struct {
		g    *graph
		wa   *workerArenas
		keys []dataset.PairKey
		dsts []int32
	}
	ews := make([]episodeWorker, workers)
	// Running aggregates, merged chunk by chunk in episode order:
	// identical accumulation order to a sequential pass, so the result
	// is independent of worker count and chunking.
	perPair := map[dataset.PairKey]*stats.Accum{}
	relaySeq := map[dataset.PairKey][]topology.HostID{}
	var unaveraged []float64
	for base := 0; base < len(a.ds.Episodes); base += chunk {
		nb := len(a.ds.Episodes) - base
		if nb > chunk {
			nb = chunk
		}
		err := fanout.For(a.context(), workers, nb, func(w, i int) error {
			ep := a.ds.Episodes[base+i]
			ew := &ews[w]
			if ew.g == nil {
				ew.g = newGraph(hosts, index)
				ew.wa = newWorkerArenas(ew.g, 1)
			} else {
				ew.g.reset()
			}
			g := ew.g
			// Deterministic edge insertion order; a source's pairs are
			// consecutive, so each source run is one batch search.
			keys := dataset.SortedKeys(ep.RTTMs, ew.keys)
			ew.keys = keys
			for _, k := range keys {
				v := ep.RTTMs[k]
				g.addEdge(index[k.Src], edge{to: index[k.Dst], weight: v, value: v})
			}
			g.freeze()
			out := &outs[i]
			out.keys = out.keys[:0]
			out.diffs = out.diffs[:0]
			out.relays = out.relays[:0]
			for start, end := 0, 0; start < len(keys); start = end {
				ew.dsts = ew.dsts[:0]
				for end = start; end < len(keys) && keys[end].Src == keys[start].Src; end++ {
					ew.dsts = append(ew.dsts, int32(index[keys[end].Dst]))
				}
				err := g.alternatesFrom(index[keys[start].Src], ew.dsts, 0, nil, ew.wa, 0, func(j int, direct edge, path []int) error {
					altVal, _, err := g.composePath(MetricRTT, path)
					if err != nil {
						return err
					}
					out.keys = append(out.keys, keys[start+j])
					out.diffs = append(out.diffs, direct.value-altVal)
					out.relays = append(out.relays, hosts[path[1]])
					return nil
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return EpisodeAnalysis{}, err
		}
		for oi := range outs[:nb] {
			out := &outs[oi]
			for i, k := range out.keys {
				unaveraged = append(unaveraged, out.diffs[i])
				acc, ok := perPair[k]
				if !ok {
					acc = &stats.Accum{}
					perPair[k] = acc
				}
				acc.Add(out.diffs[i])
				relaySeq[k] = append(relaySeq[k], out.relays[i])
			}
		}
	}
	var pairAveraged []float64
	var churn []float64
	for _, k := range dataset.SortedKeys(perPair, nil) {
		pairAveraged = append(pairAveraged, perPair[k].Mean())
		seq := relaySeq[k]
		if len(seq) < 2 {
			continue
		}
		changes := 0
		for i := 1; i < len(seq); i++ {
			if seq[i] != seq[i-1] {
				changes++
			}
		}
		churn = append(churn, float64(changes)/float64(len(seq)-1))
	}
	return EpisodeAnalysis{PairAveraged: pairAveraged, Unaveraged: unaveraged, RelayChurn: churn}, nil
}
