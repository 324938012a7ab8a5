// Package core implements the paper's central methodology (Section 4.1):
// constructing a weighted graph whose vertices are measured hosts and
// whose edges are measured host-to-host paths, then — for every host pair
// — removing the direct edge and computing the best synthetic alternate
// path by composing the remaining measured paths. Alternate paths are
// compared with default paths per metric (round-trip time, loss rate,
// propagation delay, and Mathis-model bandwidth), with the robustness
// analyses of Section 6 (confidence-interval t-tests, median-by-
// convolution, simultaneous-episode analysis) and the hypothesis
// evaluations of Section 7 (host/AS influence, congestion vs. propagation
// decomposition).
//
// The alternate search is embarrassingly parallel across host pairs, and
// the engine exploits that: graphs pack their adjacency into CSR slabs
// with a binary-search edge index, each search borrows its working
// arrays from a pool (or a per-worker arena) instead of allocating,
// per-pair searches on large graphs prune with ALT landmark lower
// bounds, and the Analyzer shards pairs across a worker pool (see
// Analyzer.Concurrency). Output is bit-identical regardless of worker
// count.
package core

import (
	"fmt"
	"math"
	"sync"

	"pathsel/internal/csr"
	"pathsel/internal/dataset"
	"pathsel/internal/netsim"
	"pathsel/internal/stats"
	"pathsel/internal/topology"
)

// Metric selects which path-quality measure drives the analysis.
type Metric int

const (
	// MetricRTT is mean round-trip time in ms (additive composition).
	MetricRTT Metric = iota
	// MetricLoss is mean loss rate (composed assuming independent hop
	// losses, as in the paper's Figure 3).
	MetricLoss
	// MetricPropDelay is the propagation-delay estimate: the tenth
	// percentile of round-trip samples (additive composition),
	// Section 7.2.
	MetricPropDelay
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricRTT:
		return "rtt"
	case MetricLoss:
		return "loss"
	case MetricPropDelay:
		return "propagation"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// PropagationQuantile is the RTT quantile used to estimate propagation
// delay ("we chose to take the tenth percentile rather than the actual
// minimum observation to protect against noise").
const PropagationQuantile = 0.10

// edge is a measured directed path usable as a hop of a synthetic
// alternate path.
type edge struct {
	to int // vertex index
	// weight is the additive Dijkstra cost: the mean itself for RTT and
	// propagation delay, -log(1-p) for loss.
	weight float64
	// value is the metric in natural units (ms or loss probability).
	value float64
	// summary carries mean and variance for confidence intervals.
	summary stats.Summary
}

// graph is the measurement graph for one metric, packed in compressed-
// sparse-row form: a shared offset/target index (see internal/csr) plus
// parallel weight/value/summary slabs, sorted by target within each row.
// One layout serves every size — the former dense O(n²) table and its
// per-lookup hash-map fallback are gone, and loss weights are computed
// once at staging time and stored in the slab, never recomputed at
// lookup.
//
// Edges are staged by addEdge and packed by freeze (idempotent; invoked
// by buildGraph and lazily by lookups). A frozen graph is read-only and
// safe for concurrent searches; freeze itself is not safe to race with
// searches, so concurrent users must build — or freeze — before fanning
// out, which every Analyzer entry point does.
type graph struct {
	hosts []topology.HostID
	index map[topology.HostID]int

	// Staged edges, consumed by freeze but retained so a reset graph
	// reuses their capacity (the episode analysis rebuilds one graph per
	// episode over a fixed host list).
	stageSrc []int32
	stageDst []int32
	stageWt  []float64
	stageVal []float64
	stageSum []stats.Summary

	frozen bool
	ix     csr.Index
	wt     []float64       // Dijkstra cost per slot
	val    []float64       // metric value in natural units per slot
	sum    []stats.Summary // per-slot summary
	perm   []int32         // freeze scratch, kept for reuse

	// Reverse adjacency over the same edges: rix rows are incoming
	// neighbors sorted by source, rwt the matching weights. The one-hop
	// and replay searches gather a destination's in-weights into a dense
	// per-scratch array through it, and the landmark builder runs its
	// reverse Dijkstras over it.
	rix   csr.Index
	rwt   []float64
	rperm []int32

	// scratch pools per-search working state (distance/predecessor arrays
	// and the priority queue) so searches allocate nothing proportional
	// to the graph.
	scratch sync.Pool

	// ALT landmark tables for goal-directed pruning of per-pair searches
	// on large graphs; built lazily by the first search that uses them.
	lmOnce sync.Once
	lm     *landmarks
}

// newGraph creates an empty graph over the given hosts. If index is nil
// a host-to-vertex index is built (hosts must then be duplicate-free);
// passing a prebuilt index lets callers share one across many graphs.
func newGraph(hosts []topology.HostID, index map[topology.HostID]int) *graph {
	if index == nil {
		index = make(map[topology.HostID]int, len(hosts))
		for i, h := range hosts {
			index[h] = i
		}
	}
	n := len(hosts)
	g := &graph{hosts: hosts, index: index}
	g.scratch.New = func() any { return newSearchScratch(n) }
	return g
}

// addEdge stages a directed edge for the next freeze. At most one edge
// may exist per (src, dst) pair.
func (g *graph) addEdge(src int, e edge) {
	g.stageSrc = append(g.stageSrc, int32(src))
	g.stageDst = append(g.stageDst, int32(e.to))
	g.stageWt = append(g.stageWt, e.weight)
	g.stageVal = append(g.stageVal, e.value)
	g.stageSum = append(g.stageSum, e.summary)
	g.frozen = false
}

// freeze packs the staged edges into the CSR slabs. Idempotent; called
// by buildGraph and lazily by the first lookup or search on a staged
// graph. Not safe to race with concurrent searches.
func (g *graph) freeze() {
	if g.frozen {
		return
	}
	m := len(g.stageSrc)
	g.perm = g.ix.Rebuild(len(g.hosts), g.stageSrc, g.stageDst, g.perm)
	g.wt = growFloats(g.wt, m)
	g.val = growFloats(g.val, m)
	g.sum = growSummaries(g.sum, m)
	for slot := 0; slot < m; slot++ {
		src := g.perm[slot]
		g.wt[slot] = g.stageWt[src]
		g.val[slot] = g.stageVal[src]
		g.sum[slot] = g.stageSum[src]
	}
	// The reverse index packs the same staged edges with the endpoints
	// swapped; only the weight payload is needed on that side.
	g.rperm = g.rix.Rebuild(len(g.hosts), g.stageDst, g.stageSrc, g.rperm)
	g.rwt = growFloats(g.rwt, m)
	for slot := 0; slot < m; slot++ {
		g.rwt[slot] = g.stageWt[g.rperm[slot]]
	}
	g.frozen = true
}

// fillInWeights loads the weights of dst's incoming edges into the
// dense array wTo, indexed by source vertex. wTo must hold +Inf
// everywhere on entry (the searchScratch invariant); the first staged
// edge wins on duplicates, matching csr.Find. Callers must restore the
// invariant with clearInWeights.
//
//repolint:hotpath
func (g *graph) fillInWeights(dst int, wTo []float64) {
	lo, hi := g.rix.Row(int32(dst))
	for slot := lo; slot < hi; slot++ {
		v := g.rix.Tgt[slot]
		if math.IsInf(wTo[v], 1) {
			wTo[v] = g.rwt[slot]
		}
	}
}

// clearInWeights resets the entries written by fillInWeights to +Inf.
//
//repolint:hotpath
func (g *graph) clearInWeights(dst int, wTo []float64) {
	lo, hi := g.rix.Row(int32(dst))
	for slot := lo; slot < hi; slot++ {
		wTo[g.rix.Tgt[slot]] = math.Inf(1)
	}
}

// reset returns the graph to the empty staged state over the same host
// list, retaining slab capacity. Landmarks are discarded with the edges.
func (g *graph) reset() {
	g.stageSrc = g.stageSrc[:0]
	g.stageDst = g.stageDst[:0]
	g.stageWt = g.stageWt[:0]
	g.stageVal = g.stageVal[:0]
	g.stageSum = g.stageSum[:0]
	g.frozen = false
	g.lmOnce = sync.Once{}
	g.lm = nil
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func growSummaries(s []stats.Summary, n int) []stats.Summary {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]stats.Summary, n)
}

// lossWeight converts a loss probability to an additive cost.
func lossWeight(p float64) float64 {
	if p >= 1 {
		p = 0.999999
	}
	if p < 0 {
		p = 0
	}
	return -math.Log1p(-p)
}

// lossFromWeight inverts lossWeight.
func lossFromWeight(w float64) float64 {
	return -math.Expm1(-w)
}

// metricEdge builds the edge for one measured pair under a metric: the
// value is the summary mean in natural units, and the Dijkstra weight is
// the (clamped) loss weight for loss or the mean itself otherwise. Every
// graph construction routes through this helper so the weight logic
// cannot drift between call sites.
func metricEdge(metric Metric, to int, s stats.Summary) edge {
	e := edge{to: to, value: s.Mean, summary: s}
	if metric == MetricLoss {
		e.weight = lossWeight(s.Mean)
	} else {
		e.weight = s.Mean
	}
	return e
}

// buildGraph constructs the per-metric measurement graph from a dataset,
// returning it frozen and ready for concurrent searches. A non-nil
// bucket restricts every edge to the samples taken in that time-of-day
// bucket (RTT and loss only).
func buildGraph(ds *dataset.Dataset, metric Metric, b *netsim.Bucket) (*graph, error) {
	g := newGraph(ds.Hosts, nil)
	if err := stageGraph(g, ds, metric, b); err != nil {
		return nil, err
	}
	g.freeze()
	return g, nil
}

// stageGraph stages a dataset's measured pairs into an empty graph.
func stageGraph(g *graph, ds *dataset.Dataset, metric Metric, b *netsim.Bucket) error {
	if b != nil && metric != MetricRTT && metric != MetricLoss {
		return fmt.Errorf("core: bucketed analysis supports RTT and loss, not %v", metric)
	}
	for _, k := range ds.PairKeys() {
		si, ok1 := g.index[k.Src]
		di, ok2 := g.index[k.Dst]
		if !ok1 || !ok2 {
			return fmt.Errorf("core: path %v references host outside dataset host list", k)
		}
		var s stats.Summary
		var ok bool
		switch {
		case metric == MetricRTT && b == nil:
			s, ok = ds.MeanRTT(k)
		case metric == MetricRTT:
			s, ok = ds.MeanRTTBucket(k, *b)
		case metric == MetricLoss && b == nil:
			s, ok = ds.LossRate(k)
		case metric == MetricLoss:
			s, ok = ds.LossRateBucket(k, *b)
		case metric == MetricPropDelay:
			var v float64
			v, ok = ds.PropagationDelay(k, PropagationQuantile)
			s = stats.Summary{N: ds.Paths[k].Measurements, Mean: v}
		default:
			return fmt.Errorf("core: unknown metric %v", metric)
		}
		if !ok {
			continue
		}
		g.addEdge(si, metricEdge(metric, di, s))
	}
	return nil
}

// directEdge returns the direct edge between two vertices, if measured:
// a binary search of dst within src's sorted CSR row.
func (g *graph) directEdge(src, dst int) (edge, bool) {
	if !g.frozen {
		g.freeze()
	}
	slot := g.ix.Find(int32(src), int32(dst))
	if slot < 0 {
		return edge{}, false
	}
	return g.edgeAt(slot), true
}

// edgeAt materializes the edge stored at a CSR slot.
func (g *graph) edgeAt(slot int32) edge {
	return edge{
		to:      int(g.ix.Tgt[slot]),
		weight:  g.wt[slot],
		value:   g.val[slot],
		summary: g.sum[slot],
	}
}

// pqItem is one priority-queue entry of the Dijkstra search.
type pqItem struct {
	vertex int
	dist   float64
}

// pqLess orders items by distance, breaking ties by vertex so the pop
// order (and therefore the search) is fully deterministic.
func pqLess(a, b pqItem) bool {
	//repolint:allow floateq -- deterministic tie-break: equal costs fall through to the vertex comparison
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.vertex < b.vertex
}

// pq is a hand-rolled binary min-heap. Unlike container/heap it moves
// concrete pqItem values, so pushes never box through an interface and
// the search allocates only when the backing array grows (amortized to
// nothing once the scratch is warm).
type pq []pqItem

//repolint:hotpath
func (q *pq) push(it pqItem) {
	//repolint:allow hotalloc -- amortized: the heap's pooled backing array grows to steady state once, then never again
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pqLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

//repolint:hotpath
func (q *pq) pop() pqItem {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && pqLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && pqLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// searchScratch is the reusable working state of one shortest-path
// search: Dijkstra's arrays, the heap, and (grown on demand) the layered
// buffers of the bounded DP. Scratches live in the graph's pool; a
// search borrows one, so concurrent searches never share state. The
// batched analyses instead hold one arena per worker for the duration
// of a whole shard (see workerArenas and alternatesFrom).
type searchScratch struct {
	dist []float64
	prev []int32
	done []bool
	// order records vertices in finalize order; replayLastHop walks it
	// to re-create the relaxation sequence of a per-pair search.
	order []int32
	// parent[v] reports whether v is an interior vertex of the latest
	// source tree (some vertex's predecessor).
	parent []bool
	// wTo is a dense in-weight gather array for one destination at a
	// time: wTo[v] = weight of the v->dst edge, +Inf when absent.
	// Invariant: all +Inf between fillInWeights/clearInWeights windows.
	wTo []float64
	// banTo marks forbidden first hops out of the search source: the
	// edge src->v is skipped when banTo[v] is set. The classic
	// alternate-path search bans exactly {dst} (the direct edge); the
	// k-alternates spur searches ban the next hop of every previously
	// accepted path sharing the spur's root (all such banned edges
	// originate at the sub-search's source, which is what makes one
	// dense mask sufficient). Invariant: all false between searches;
	// setters restore the entries they flip.
	banTo []bool
	q     pq
	// Layered DP state for boundedAlternate: (maxEdges+1)*n cells each,
	// laid out as layer*n+vertex.
	ldist []float64
	lprev []int32
}

func newSearchScratch(n int) *searchScratch {
	s := &searchScratch{
		dist:   make([]float64, n),
		prev:   make([]int32, n),
		done:   make([]bool, n),
		order:  make([]int32, 0, n),
		parent: make([]bool, n),
		wTo:    make([]float64, n),
		banTo:  make([]bool, n),
		q:      make(pq, 0, 64),
	}
	for i := range s.wTo {
		s.wTo[i] = math.Inf(1)
	}
	return s
}

// shortestAlternateInto finds, in a caller-owned scratch, the
// minimum-weight path src->dst that does not use the direct src->dst
// edge, optionally excluding a set of vertices (for the host-removal
// analysis). maxVia limits the number of intermediate hosts: 0 means
// unlimited, 1 restricts to one-hop alternates (the paper's bandwidth
// and median analyses). It returns the vertex sequence including
// endpoints, or ok=false if no alternate exists. Safe for concurrent use
// on a frozen graph with distinct scratches.
func (g *graph) shortestAlternateInto(s *searchScratch, src, dst, maxVia int, excluded []bool) (path []int, ok bool) {
	if !g.frozen {
		g.freeze()
	}
	// Ban the direct edge by marking dst as a forbidden first hop; the
	// entry's previous value is restored so callers (the k-alternates
	// spur loop) can stack additional bans around this search.
	wasBanned := s.banTo[dst]
	s.banTo[dst] = true
	defer func() { s.banTo[dst] = wasBanned }()
	switch {
	case maxVia == 1:
		return g.oneHopAlternate(src, dst, excluded, s)
	case maxVia > 1:
		return g.boundedAlternate(src, dst, maxVia, excluded, s)
	default:
		return g.dijkstraAlternate(src, dst, excluded, s)
	}
}

// oneHopAlternate enumerates src->via->dst candidates directly. The
// destination's in-weights are gathered once into the scratch's dense
// array, so the scan over src's row costs O(1) per candidate instead of
// a binary search each.
//
//repolint:hotpath
func (g *graph) oneHopAlternate(src, dst int, excluded []bool, s *searchScratch) (path []int, ok bool) {
	best := math.Inf(1)
	bestVia := -1
	wTo := s.wTo
	g.fillInWeights(dst, wTo)
	lo, hi := g.ix.Row(int32(src))
	for slot := lo; slot < hi; slot++ {
		via := int(g.ix.Tgt[slot])
		if via == dst || via == src || s.banTo[via] || (excluded != nil && excluded[via]) {
			continue
		}
		w := g.wt[slot] + wTo[via]
		//repolint:allow floateq -- deterministic tie-break on identical sums of the same stored weights
		if w < best || (w == best && via < bestVia) {
			best, bestVia = w, via
		}
	}
	g.clearInWeights(dst, wTo)
	if bestVia == -1 {
		return nil, false
	}
	//repolint:allow hotalloc -- the found path escapes to the caller: one slice per successful query, not per relaxation
	return []int{src, bestVia, dst}, true
}

// scanMinVertices is the size below which the unlimited search uses the
// O(n^2) array-scan Dijkstra instead of the heap. Measurement graphs are
// often small (tens of hosts) and nearly complete, so scanning an
// n-element distance array for the next vertex is cheaper than
// maintaining a heap over ~n^2 lazily deleted entries; above the
// threshold the sparser heap variant (with ALT pruning for per-pair
// queries) wins.
const scanMinVertices = 512

// dijkstraAlternate is the unlimited-length search. Both variants
// finalize vertices in (distance, vertex) order, so they produce
// identical paths.
func (g *graph) dijkstraAlternate(src, dst int, excluded []bool, s *searchScratch) (path []int, ok bool) {
	n := len(g.hosts)
	dist, prev, done := s.dist, s.prev, s.done
	for i := 0; i < n; i++ {
		dist[i], prev[i], done[i] = math.MaxFloat64, -1, false
	}
	dist[src] = 0
	s.order = s.order[:0]
	if n <= scanMinVertices {
		g.dijkstraScan(src, dst, excluded, s)
	} else {
		g.dijkstraHeap(src, dst, excluded, s, g.landmarksFor(dst))
	}
	return pathFromPrev(prev, src, dst)
}

// pathFromPrev reconstructs the src->dst vertex sequence from a
// predecessor array.
func pathFromPrev(prev []int32, src, dst int) (path []int, ok bool) {
	if prev[dst] == -1 {
		return nil, false
	}
	for v := dst; v != -1; v = int(prev[v]) {
		path = append(path, v)
		if v == src {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	if path[0] != src {
		return nil, false
	}
	return path, true
}

// sourceTree runs one full Dijkstra from src with every direct edge
// present (dst=-1 disables both the early exit and the direct-edge
// exclusion) into a scratch borrowed by the caller. Whenever the
// resulting tree reaches a destination through a relay — prev[dst] is
// neither src nor -1 — the tree path is exactly what the per-pair
// direct-edge-excluded search would find: src pops first and seeds
// dst with the direct edge, so a different predecessor means some
// relayed path won a strict improvement, and the two searches accept
// the same improvement sequence below the direct weight. Only when the
// direct edge wins (prev[dst]==src) does the caller need the per-pair
// fallback. This amortizes one search per source across all its
// destinations.
//
//repolint:hotpath
func (g *graph) sourceTree(src int, excluded []bool, s *searchScratch) {
	if !g.frozen {
		g.freeze()
	}
	n := len(g.hosts)
	for i := 0; i < n; i++ {
		s.dist[i], s.prev[i], s.done[i], s.parent[i] = math.MaxFloat64, -1, false, false
	}
	s.dist[src] = 0
	s.order = s.order[:0]
	if n <= scanMinVertices {
		g.dijkstraScan(src, -1, excluded, s)
	} else {
		g.dijkstraHeap(src, -1, excluded, s, nil)
	}
	for v := 0; v < n; v++ {
		if p := s.prev[v]; p >= 0 {
			s.parent[p] = true
		}
	}
}

// replayLastHop resolves a pair whose direct edge won the source tree
// and whose destination is a tree leaf, without another search. When
// dst has no tree children, removing the direct edge changes nothing
// about the rest of the tree: every other vertex keeps its distance and
// predecessor, and the per-pair search would finalize them in exactly
// the recorded order, stopping once dst itself becomes the minimum. So
// the search's whole effect on dst can be replayed from the tree: walk
// the finalize order, apply each vertex's relaxation of dst (skipping
// the forbidden direct edge), and stop where dst would have popped.
// Returns the alternate path per-pair Dijkstra would return, or
// ok=false if none exists. Only valid when !s.parent[dst] and
// s.prev[dst]==src.
//
//repolint:hotpath
func (g *graph) replayLastHop(src, dst int, s *searchScratch) (path []int, ok bool) {
	cur := math.MaxFloat64
	best := -1
	wTo := s.wTo
	g.fillInWeights(dst, wTo)
	for _, u32 := range s.order {
		u := int(u32)
		// dst pops before u does: the search is over.
		//repolint:allow floateq -- replays the pop order's exact tie-break; values are copies, not recomputations
		if s.dist[u] > cur || (s.dist[u] == cur && u > dst) {
			break
		}
		if u == src || u == dst {
			continue
		}
		if nd := s.dist[u] + wTo[u]; nd < cur {
			cur, best = nd, u
		}
	}
	g.clearInWeights(dst, wTo)
	if best == -1 {
		return nil, false
	}
	path, ok = pathFromPrev(s.prev, src, best)
	if !ok {
		return nil, false
	}
	//repolint:allow hotalloc -- appends the final hop to the escaping result path: once per resolved pair
	return append(path, dst), true
}

// alternatesFrom is the one batch search under every analysis: it finds
// the best alternate from src to each of dsts and calls visit(i, direct,
// path) in dsts order for each destination that has a measured direct
// edge and an alternate. An unlimited search (maxVia == 0) builds one
// source tree for all of src's destinations and then takes, per
// destination, the tree's own path when it reaches dst through a relay,
// a replay of the tree when the direct edge won and dst is a leaf, or a
// per-pair search with the direct edge removed when dst is an interior
// vertex or unreachable. A bounded search runs the per-pair search for
// every destination. Scratches come from slot w of wa; the tree stays
// live across the loop, so per-pair searches use the second arena.
func (g *graph) alternatesFrom(src int, dsts []int32, maxVia int, excluded []bool, wa *workerArenas, w int, visit func(i int, direct edge, path []int) error) error {
	var tree *searchScratch
	if maxVia == 0 {
		tree = wa.tree(w)
		g.sourceTree(src, excluded, tree)
	}
	for i, d := range dsts {
		dst := int(d)
		direct, found := g.directEdge(src, dst)
		if !found {
			continue
		}
		p := -1 // dst's tree predecessor; -1 when bounded or unreachable
		if tree != nil {
			p = int(tree.prev[dst])
		}
		var path []int
		switch {
		case p != -1 && p != src:
			path, found = pathFromPrev(tree.prev, src, dst)
		case p == src && !tree.parent[dst]:
			path, found = g.replayLastHop(src, dst, tree)
		default:
			path, found = g.shortestAlternateInto(wa.pair(w), src, dst, maxVia, excluded)
		}
		if !found {
			continue
		}
		if err := visit(i, direct, path); err != nil {
			return err
		}
	}
	return nil
}

// dijkstraScan selects the next vertex by scanning the distance array:
// strict less-than keeps the lowest vertex on ties, matching the heap's
// (distance, vertex) pop order.
//
//repolint:hotpath
func (g *graph) dijkstraScan(src, dst int, excluded []bool, s *searchScratch) {
	n := len(g.hosts)
	dist, prev, done := s.dist, s.prev, s.done
	for {
		u, du := -1, math.MaxFloat64
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < du {
				u, du = v, dist[v]
			}
		}
		if u == -1 || u == dst {
			return
		}
		done[u] = true
		//repolint:allow hotalloc -- amortized: order's pooled backing array reaches n capacity once, then never grows
		s.order = append(s.order, int32(u))
		lo, hi := g.ix.Row(int32(u))
		tgt, wts := g.ix.Tgt[lo:hi], g.wt[lo:hi]
		for i, v32 := range tgt {
			v := int(v32)
			if done[v] {
				continue
			}
			if excluded != nil && excluded[v] && v != dst {
				continue
			}
			if u == src && s.banTo[v] {
				continue // forbidden first hop (direct edge, or a spur ban)
			}
			nd := du + wts[i]
			if nd < dist[v] {
				dist[v] = nd
				prev[v] = int32(u)
			}
		}
	}
}

// dijkstraHeap is the classic lazy-deletion heap variant for large
// sparse graphs. For per-pair queries (dst >= 0) a non-nil lm applies
// ALT landmark pruning: a finalized vertex whose distance plus the
// landmark lower bound to dst strictly exceeds the tentative distance
// of dst cannot lie on any optimal path to dst, so its expansion is
// skipped. Every vertex of the returned path satisfies
// dist[v] + lb(v,dst) <= d(dst), so the pruned search finalizes and
// relaxes the path's vertices exactly as the unpruned one does — paths
// stay bit-identical (see DESIGN.md §10).
//
//repolint:hotpath
func (g *graph) dijkstraHeap(src, dst int, excluded []bool, s *searchScratch, lm *landmarks) {
	dist, prev, done := s.dist, s.prev, s.done
	q := s.q[:0]
	q.push(pqItem{vertex: src, dist: 0})
	for len(q) > 0 {
		it := q.pop()
		u := it.vertex
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		//repolint:allow hotalloc -- amortized: order's pooled backing array reaches n capacity once, then never grows
		s.order = append(s.order, int32(u))
		if lm != nil && it.dist+lm.lowerBound(u, dst) > dist[dst] {
			continue // ALT prune: u cannot improve any path to dst
		}
		lo, hi := g.ix.Row(int32(u))
		tgt, wts := g.ix.Tgt[lo:hi], g.wt[lo:hi]
		for i, v32 := range tgt {
			v := int(v32)
			if done[v] {
				continue
			}
			if excluded != nil && excluded[v] && v != dst {
				continue
			}
			if u == src && s.banTo[v] {
				continue // forbidden first hop (direct edge, or a spur ban)
			}
			nd := it.dist + wts[i]
			if nd < dist[v] {
				dist[v] = nd
				prev[v] = int32(u)
				q.push(pqItem{vertex: v, dist: nd})
			}
		}
	}
	s.q = q[:0] // keep the grown backing array for the next search
}

// boundedAlternate finds the minimum-weight alternate using at most
// maxVia intermediate hosts (i.e. maxVia+1 edges), by dynamic
// programming over (edge count, vertex) states — plain Dijkstra with a
// hop cap is incorrect because the cheapest unlimited path can exceed
// the cap while a costlier short path satisfies it.
func (g *graph) boundedAlternate(src, dst, maxVia int, excluded []bool, s *searchScratch) (path []int, ok bool) {
	n := len(g.hosts)
	maxEdges := maxVia + 1
	const inf = math.MaxFloat64
	// dist[h*n+v]: min weight of a path src->v with <=h edges.
	cells := (maxEdges + 1) * n
	if cap(s.ldist) < cells {
		s.ldist = make([]float64, cells)
		s.lprev = make([]int32, cells)
	}
	dist := s.ldist[:cells]
	prev := s.lprev[:cells]
	for i := range dist {
		dist[i], prev[i] = inf, -1
	}
	dist[src] = 0
	for h := 1; h <= maxEdges; h++ {
		cur, last := dist[h*n:(h+1)*n], dist[(h-1)*n:h*n]
		curPrev, lastPrev := prev[h*n:(h+1)*n], prev[(h-1)*n:h*n]
		copy(cur, last)
		copy(curPrev, lastPrev)
		for u := 0; u < n; u++ {
			//repolint:allow floateq -- +Inf sentinel for "unreached"; no arithmetic ever produces it
			if last[u] == inf {
				continue
			}
			lo, hi := g.ix.Row(int32(u))
			tgt, wts := g.ix.Tgt[lo:hi], g.wt[lo:hi]
			du := last[u]
			for i, v32 := range tgt {
				v := int(v32)
				if excluded != nil && excluded[v] && v != dst {
					continue
				}
				if u == src && s.banTo[v] {
					continue // forbidden first hop
				}
				if v == src {
					continue
				}
				nd := du + wts[i]
				if nd < cur[v] {
					cur[v] = nd
					curPrev[v] = int32(u)
				}
			}
		}
	}
	//repolint:allow floateq -- +Inf sentinel for "unreached"; no arithmetic ever produces it
	if dist[maxEdges*n+dst] == inf {
		return nil, false
	}
	// Reconstruct by walking layers backwards.
	v := dst
	h := maxEdges
	var rev []int
	for v != -1 {
		rev = append(rev, v)
		if v == src {
			break
		}
		// Find the layer where v's best distance was set.
		//repolint:allow floateq -- layers copy values verbatim, so equality means "unchanged", bit for bit
		for h > 0 && dist[(h-1)*n+v] == dist[h*n+v] && prev[(h-1)*n+v] == prev[h*n+v] {
			h--
		}
		v = int(prev[h*n+v])
		h--
		if len(rev) > maxEdges+2 {
			return nil, false // defensive
		}
	}
	if len(rev) == 0 || rev[len(rev)-1] != src {
		return nil, false
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// composePath combines the edges along a vertex sequence into the
// alternate path's metric value and summary. For loss the values compose
// by independence; for RTT and propagation delay they add. The summary's
// squared standard errors always add (independent hops).
func (g *graph) composePath(metric Metric, path []int) (value float64, sum stats.Summary, err error) {
	if len(path) < 2 {
		return 0, stats.Summary{}, fmt.Errorf("core: path too short: %v", path)
	}
	var buf [8]stats.Summary // on the stack unless the path has more hops
	parts := buf[:0]
	weightTotal := 0.0
	for i := 0; i+1 < len(path); i++ {
		e, found := g.directEdge(path[i], path[i+1])
		if !found {
			return 0, stats.Summary{}, fmt.Errorf("core: missing edge %d->%d in composed path", path[i], path[i+1])
		}
		weightTotal += e.weight
		parts = append(parts, e.summary)
	}
	sum = stats.SumSummaries(parts...)
	switch metric {
	case MetricLoss:
		value = lossFromWeight(weightTotal)
		// The summary mean for loss must be the composed probability,
		// not the sum of hop probabilities.
		sum.Mean = value
	default:
		value = weightTotal
	}
	return value, sum, nil
}

// pathWeight sums the stored edge weights along a vertex sequence,
// +Inf when a hop is unmeasured. Candidate ordering in the
// k-alternates search keys on this exact sum.
func (g *graph) pathWeight(path []int) float64 {
	w := 0.0
	for i := 0; i+1 < len(path); i++ {
		e, found := g.directEdge(path[i], path[i+1])
		if !found {
			return math.Inf(1)
		}
		w += e.weight
	}
	return w
}
