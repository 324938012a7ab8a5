package core

import "math"

// This file implements the k-shortest-alternates search: Yen's
// algorithm specialized to the measurement graph's "alternate path"
// semantics (a candidate may never be the bare direct src->dst edge)
// and to its pooled scratch machinery. The crucial fit is the spur
// step: every edge Yen bans while searching from a spur node
// originates *at that spur node*, which is also the sub-search's
// source — so the engine's banned-first-hop mask (searchScratch.banTo,
// the generalization of the old hard-coded direct-edge ban) expresses
// all of Yen's deviation constraints with zero overhead for the
// ordinary single-path searches. ALT landmark pruning stays admissible
// throughout: bans and root exclusions only remove options, and
// restricting a graph never shrinks a distance (see landmarks.go).

// yenState is the per-worker reusable state of the k-alternates
// search: the root-exclusion mask (base query exclusions plus the
// current root path's interior), undo lists for mask entries, and the
// candidate pool. One yenState serves many pairs; everything is reset
// by bookkeeping, never reallocated.
type yenState struct {
	excl   []bool // base exclusions ∪ current root vertices
	marked []int  // root vertices to unmark after the spur loop
	banned []int  // banTo entries to clear after one spur search
	cands  []yenCand
}

// yenCand is one pending deviation path.
type yenCand struct {
	path   []int
	weight float64
}

// newYenState builds a worker's search state over an n-vertex graph,
// seeding the exclusion mask from the query's exclusions (nil = none).
func newYenState(n int, excluded []bool) *yenState {
	y := &yenState{excl: make([]bool, n)}
	copy(y.excl, excluded)
	return y
}

// candLess orders candidates by (weight, length, lexicographic hops),
// a total deterministic order.
func candLess(a, b yenCand) bool {
	//repolint:allow floateq -- deterministic tie-break: equal weights fall through to length and hop order
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	if len(a.path) != len(b.path) {
		return len(a.path) < len(b.path)
	}
	for i := range a.path {
		if a.path[i] != b.path[i] {
			return a.path[i] < b.path[i]
		}
	}
	return false
}

// samePath reports vertex-sequence equality.
func samePath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// spurSearch finds the minimum-weight path sp->dst honoring the
// scratch's banTo mask (forbidden first hops out of sp) and the
// exclusion mask, with at most r intermediate vertices (r < 0 =
// unlimited). Unlike shortestAlternateInto it permits the direct
// sp->dst edge unless banTo[dst] is set — a spur path that ends a
// longer root is not the pair's direct path.
//
//repolint:hotpath
func (g *graph) spurSearch(s *searchScratch, sp, dst, r int, excluded []bool) (path []int, ok bool) {
	switch {
	case r == 0:
		if s.banTo[dst] {
			return nil, false
		}
		if _, found := g.directEdge(sp, dst); !found {
			return nil, false
		}
		//repolint:allow hotalloc -- the spur path escapes into the candidate set: one slice per accepted spur
		return []int{sp, dst}, true
	case r > 0:
		return g.boundedAlternate(sp, dst, r, excluded, s)
	default:
		return g.dijkstraAlternate(sp, dst, excluded, s)
	}
}

// kAlternatesInto returns up to k alternate paths src->dst in
// ascending (weight, length, lex) candidate order, each a fresh vertex
// slice including both endpoints. The first path is exactly the one
// shortestAlternateInto finds, so a k=1 query degenerates to the
// single-best search; subsequent paths are Yen deviations: for
// each spur position along the latest accepted path, the root's
// interior is excluded, the next hop of every accepted path sharing
// the root is banned, and the remaining maxVia budget bounds the spur.
// No duplicates are produced (bans rule out re-deriving accepted
// paths; pending candidates are deduplicated on insert). maxVia == 0
// means unlimited; excluded must be the mask y was built with.
func (g *graph) kAlternatesInto(s *searchScratch, y *yenState, src, dst, k, maxVia int) [][]int {
	first, ok := g.shortestAlternateInto(s, src, dst, maxVia, y.excl)
	if !ok || k < 1 {
		return nil
	}
	accepted := make([][]int, 0, k)
	accepted = append(accepted, first)
	cands := y.cands[:0]
	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		for i := 0; i+1 < len(prev); i++ {
			if i > 0 {
				// prev[i-1] joins the root: the spur must not revisit it.
				if v := prev[i-1]; !y.excl[v] {
					y.excl[v] = true
					y.marked = append(y.marked, v)
				}
			}
			r := -1 // unlimited
			if maxVia > 0 {
				if r = maxVia - i; r < 0 {
					continue
				}
			}
			sp := prev[i]
			// Ban the deviation edges: the next hop of every accepted
			// path that shares this root, plus — when spurring from the
			// source itself — the direct edge, which no alternate may be.
			for _, p := range accepted {
				if len(p) > i+1 && samePath(p[:i+1], prev[:i+1]) {
					if v := p[i+1]; !s.banTo[v] {
						s.banTo[v] = true
						y.banned = append(y.banned, v)
					}
				}
			}
			if i == 0 && !s.banTo[dst] {
				s.banTo[dst] = true
				y.banned = append(y.banned, dst)
			}
			spur, found := g.spurSearch(s, sp, dst, r, y.excl)
			for _, v := range y.banned {
				s.banTo[v] = false
			}
			y.banned = y.banned[:0]
			if !found {
				continue
			}
			total := make([]int, 0, i+len(spur))
			total = append(total, prev[:i]...)
			total = append(total, spur...)
			cands = addYenCandidate(g, cands, accepted, total)
		}
		for _, v := range y.marked {
			y.excl[v] = false
		}
		y.marked = y.marked[:0]
		if len(cands) == 0 {
			break
		}
		bi := 0
		for i := 1; i < len(cands); i++ {
			if candLess(cands[i], cands[bi]) {
				bi = i
			}
		}
		accepted = append(accepted, cands[bi].path)
		cands = append(cands[:bi], cands[bi+1:]...)
	}
	y.cands = cands[:0] // keep capacity, drop leftover candidates
	return accepted
}

// addYenCandidate appends a deviation path unless it duplicates an
// accepted path or a pending candidate.
func addYenCandidate(g *graph, cands []yenCand, accepted [][]int, path []int) []yenCand {
	for _, p := range accepted {
		if samePath(p, path) {
			return cands
		}
	}
	for _, c := range cands {
		if samePath(c.path, path) {
			return cands
		}
	}
	w := g.pathWeight(path)
	if math.IsInf(w, 1) {
		return cands
	}
	return append(cands, yenCand{path: path, weight: w})
}
