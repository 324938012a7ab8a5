package pathset

// SelectionStrategy ranks a candidate PathSet and keeps the n best
// paths under some policy. ref is the pair's default path, which
// disjointness-aware strategies score against; n <= 0 keeps every
// path. Implementations must not mutate the input set and must be
// deterministic functions of their arguments (see the package's
// determinism contract).
type SelectionStrategy interface {
	// Name identifies the strategy in exhibit tables and logs.
	Name() string
	// Select returns the chosen paths, best first.
	Select(ref Path, set PathSet, n int) PathSet
}

// ByLatency keeps the n paths with the lowest round-trip time. Paths
// without a latency annotation sort after annotated ones, falling back
// to the set's native Weight order.
type ByLatency struct{}

// Name implements SelectionStrategy.
func (ByLatency) Name() string { return "latency" }

// Select implements SelectionStrategy.
func (ByLatency) Select(ref Path, set PathSet, n int) PathSet {
	return truncate(sortBy(set, func(p Path) float64 { return p.LatencyMs }), n)
}

// ByLoss keeps the n paths with the lowest loss rate, unannotated
// paths last.
type ByLoss struct{}

// Name implements SelectionStrategy.
func (ByLoss) Name() string { return "loss" }

// Select implements SelectionStrategy.
func (ByLoss) Select(ref Path, set PathSet, n int) PathSet {
	return truncate(sortBy(set, func(p Path) float64 { return p.Loss }), n)
}

// MostDisjoint greedily picks the path maximizing the minimum
// disjointness against the default path and every path already chosen
// — the max-min construction of a mutually disjoint working set, per
// Qazi & Moors. Ties fall to the lower Weight, then the lexicographic
// hop order.
type MostDisjoint struct {
	Level Level
}

// Name implements SelectionStrategy.
func (s MostDisjoint) Name() string { return "disjoint-" + s.Level.String() }

// Select implements SelectionStrategy.
func (s MostDisjoint) Select(ref Path, set PathSet, n int) PathSet {
	if n <= 0 || n > len(set.Paths) {
		n = len(set.Paths)
	}
	remaining := set.Clone().Paths
	chosen := PathSet{Paths: make([]Path, 0, n)}
	against := []Path{ref}
	for len(chosen.Paths) < n && len(remaining) > 0 {
		bestIdx := -1
		bestScore := -1.0
		for i, p := range remaining {
			score := 1.0
			for _, q := range against {
				if d := Disjointness(s.Level, q, p); d < score {
					score = d
				}
			}
			if bestIdx == -1 || score > bestScore {
				bestIdx, bestScore = i, score
				continue
			}
			//repolint:allow floateq -- deterministic tie-break: equal max-min scores fall to weight, then hop order
			if score == bestScore {
				b := remaining[bestIdx]
				if p.Weight < b.Weight || (p.Weight == b.Weight && lexLess(p, b)) {
					bestIdx = i
				}
			}
		}
		pick := remaining[bestIdx]
		chosen.Paths = append(chosen.Paths, pick)
		against = append(against, pick)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return chosen
}
