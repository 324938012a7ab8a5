// Package pathset models *sets* of candidate paths between one host
// pair, the disjointness relationships between them, and pluggable
// selection strategies over the set — the vocabulary the paper's
// closing discussion calls for but its single-best-alternate
// methodology cannot express. The core engine produces PathSets (see
// core.Analyzer.Query); this package owns the representation so
// selection policy composes without touching the search machinery,
// in the style of scion-path-discovery's PathSet/CustomPathSelectAlg.
//
// Everything here is a pure function of its inputs with deterministic
// tie-breaks, so results are identical across runs and worker counts
// (the package is on repolint's detrand list).
package pathset

import (
	"math"
	"sort"

	"pathsel/internal/stats"
	"pathsel/internal/topology"
)

// Path is one concrete candidate path between a host pair, annotated
// with everything selection strategies score on.
type Path struct {
	// Hops is the full host sequence including both endpoints; a direct
	// path has exactly two hops.
	Hops []topology.HostID
	// Weight is the search engine's additive cost for the path under
	// the query's metric (for bandwidth queries, the negated throughput
	// so ascending weight still means best-first). Candidate sets are
	// ordered by ascending Weight.
	Weight float64
	// Value is the metric in natural units: ms for RTT/propagation,
	// loss probability for loss, kB/s for bandwidth.
	Value float64
	// Summary carries mean and variance for confidence intervals, when
	// the producing query computes them (zero otherwise).
	Summary stats.Summary
	// LatencyMs and Loss are cross-metric annotations: the path's
	// composed round-trip time and loss rate regardless of which metric
	// selected it. NaN when the producing query did not (or could not)
	// annotate them.
	LatencyMs float64
	Loss      float64
	// ASes lists the interior ASes the path traverses — every AS
	// observed on the constituent measured hops' traceroutes except the
	// two endpoint hosts' own ASes — sorted ascending and deduplicated.
	// Empty when the underlying dataset recorded no AS paths.
	ASes []topology.ASN
}

// Via returns the intermediate hosts (hops without the endpoints).
func (p Path) Via() []topology.HostID {
	if len(p.Hops) <= 2 {
		return nil
	}
	return p.Hops[1 : len(p.Hops)-1]
}

// Equal reports whether two paths traverse the same hop sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Hops) != len(q.Hops) {
		return false
	}
	for i := range p.Hops {
		if p.Hops[i] != q.Hops[i] {
			return false
		}
	}
	return true
}

// PathSet is an ordered collection of candidate paths for one host
// pair. Producers emit sets in ascending Weight order; strategies may
// reorder their copy.
type PathSet struct {
	Paths []Path
}

// Len returns the number of paths in the set.
func (s PathSet) Len() int { return len(s.Paths) }

// Empty reports whether the set has no paths.
func (s PathSet) Empty() bool { return len(s.Paths) == 0 }

// Best returns the first path of the set, ok=false when empty.
func (s PathSet) Best() (Path, bool) {
	if len(s.Paths) == 0 {
		return Path{}, false
	}
	return s.Paths[0], true
}

// Clone returns a set whose path slice is independent of the receiver
// (the Path contents — hop and AS slices — stay shared; strategies
// reorder and filter, they never mutate a path).
func (s PathSet) Clone() PathSet {
	return PathSet{Paths: append([]Path(nil), s.Paths...)}
}

// Level selects the granularity of disjointness comparison.
type Level int

const (
	// LevelLink compares the directed measured hops (host-pair edges)
	// the paths are composed from.
	LevelLink Level = iota
	// LevelAS compares the interior AS sets inferred from traceroutes,
	// per Qazi & Moors' disjoint-path selection methodology.
	LevelAS
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelLink:
		return "link"
	case LevelAS:
		return "as"
	default:
		return "level(?)"
	}
}

// Disjointness scores how little two paths share at the given level:
// 1 − |shared| / min(|a|, |b|), so 1 means fully disjoint and 0 means
// the smaller path's elements all appear in the larger one. At
// LevelLink the elements are directed hop edges; at LevelAS the
// interior AS sets. When either AS set is empty (no traceroute data)
// the paths share nothing observable and the score is 1.
func Disjointness(level Level, a, b Path) float64 {
	switch level {
	case LevelAS:
		return setDisjointness(a.ASes, b.ASes)
	default:
		return linkDisjointness(a, b)
	}
}

// linkDisjointness compares directed hop edges.
func linkDisjointness(a, b Path) float64 {
	na, nb := len(a.Hops)-1, len(b.Hops)-1
	if na <= 0 || nb <= 0 {
		return 1
	}
	shared := 0
	for i := 0; i+1 < len(a.Hops); i++ {
		for j := 0; j+1 < len(b.Hops); j++ {
			if a.Hops[i] == b.Hops[j] && a.Hops[i+1] == b.Hops[j+1] {
				shared++
				break
			}
		}
	}
	minN := na
	if nb < minN {
		minN = nb
	}
	return 1 - float64(shared)/float64(minN)
}

// setDisjointness compares two ascending-sorted AS sets.
func setDisjointness(a, b []topology.ASN) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	shared, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			shared++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	minN := len(a)
	if len(b) < minN {
		minN = len(b)
	}
	return 1 - float64(shared)/float64(minN)
}

// MaxDisjointness returns the best disjointness any path of the set
// achieves against ref (0 when the set is empty).
func (s PathSet) MaxDisjointness(level Level, ref Path) float64 {
	best := 0.0
	for _, p := range s.Paths {
		if d := Disjointness(level, ref, p); d > best {
			best = d
		}
	}
	return best
}

// lexLess orders paths by hop sequence, the deterministic tie-break of
// every strategy: shorter prefix first, then lowest differing host.
func lexLess(a, b Path) bool {
	n := len(a.Hops)
	if len(b.Hops) < n {
		n = len(b.Hops)
	}
	for i := 0; i < n; i++ {
		if a.Hops[i] != b.Hops[i] {
			return a.Hops[i] < b.Hops[i]
		}
	}
	return len(a.Hops) < len(b.Hops)
}

// scoreLess orders by an ascending score with NaN last, falling back
// to Weight and finally the lexicographic hop order, so every sort in
// this package is a total, deterministic order.
func scoreLess(a, b Path, sa, sb float64) bool {
	an, bn := math.IsNaN(sa), math.IsNaN(sb)
	if an != bn {
		return bn // the known score wins
	}
	if !an && sa != sb {
		return sa < sb
	}
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	return lexLess(a, b)
}

// truncate keeps the first n paths (n <= 0 keeps all).
func truncate(s PathSet, n int) PathSet {
	if n > 0 && len(s.Paths) > n {
		s.Paths = s.Paths[:n]
	}
	return s
}

// sortBy returns a copy of set ordered by the score function.
func sortBy(set PathSet, score func(Path) float64) PathSet {
	out := set.Clone()
	sort.SliceStable(out.Paths, func(i, j int) bool {
		return scoreLess(out.Paths[i], out.Paths[j], score(out.Paths[i]), score(out.Paths[j]))
	})
	return out
}
