package core

import (
	"math/rand"
	"reflect"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/topology"
)

// These tests lock the CSR graph against the previous dense-table /
// sparse-map implementation, preserved verbatim in
// oldgraph_fixture_test.go. Both engines must report identical edges,
// identical alternate paths (bitwise, not just equal cost), and
// identical composed values for every metric, across sizes straddling
// both the scan/heap switch (512) and the old dense/sparse boundary
// (2048).

// hostIndexOf builds the host -> vertex index both constructors expect.
func hostIndexOf(hosts []topology.HostID) map[topology.HostID]int {
	index := make(map[topology.HostID]int, len(hosts))
	for i, h := range hosts {
		index[h] = i
	}
	return index
}

// stageRandom stages up to m random directed edges (no self-loops, no
// duplicate pairs — production staging iterates unique pair keys, and
// the old engine was itself inconsistent about parallel edges) into
// both graphs in identical order. Weights are positive and
// value == weight, so composed costs are comparable under every metric.
func stageRandom(rng *rand.Rand, g *graph, og *oldGraph, n, m int) {
	seen := make(map[int64]bool, m)
	for i := 0; i < m; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if src == dst {
			dst = (dst + 1) % n
		}
		key := int64(src)<<32 | int64(dst)
		if seen[key] {
			continue
		}
		seen[key] = true
		w := 1 + rng.Float64()*99
		g.addEdge(src, edge{to: dst, weight: w, value: w})
		og.addEdge(src, edge{to: dst, weight: w, value: w})
	}
}

// comparePair checks one (src, dst, maxVia, excluded) query on both
// engines: same found flag, bitwise-identical path, and identical
// composed value and summary under every metric.
func comparePair(t *testing.T, g *graph, og *oldGraph, src, dst, maxVia int, excluded []bool) {
	t.Helper()
	path, ok := g.shortestAlternate(src, dst, maxVia, excluded)
	oldPath, oldOK := og.shortestAlternate(src, dst, maxVia, excluded)
	if ok != oldOK {
		t.Fatalf("pair %d->%d maxVia=%d: found=%v, old found=%v", src, dst, maxVia, ok, oldOK)
	}
	if !ok {
		return
	}
	if !reflect.DeepEqual(path, oldPath) {
		t.Fatalf("pair %d->%d maxVia=%d: path %v, old path %v", src, dst, maxVia, path, oldPath)
	}
	for _, metric := range []Metric{MetricRTT, MetricLoss, MetricPropDelay} {
		v, sum, err := g.composePath(metric, path)
		ov, osum, oerr := og.composePath(metric, oldPath)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("pair %d->%d %v: compose err %v, old %v", src, dst, metric, err, oerr)
		}
		if err != nil {
			continue
		}
		if v != ov || !reflect.DeepEqual(sum, osum) {
			t.Fatalf("pair %d->%d %v: composed %v/%+v, old %v/%+v", src, dst, metric, v, sum, ov, osum)
		}
	}
}

// TestDifferentialStagedSizes cross-checks the engines on random staged
// graphs at sizes below the scan/heap switch, between it and the old
// dense/sparse boundary, and above that boundary.
func TestDifferentialStagedSizes(t *testing.T) {
	sizes := []struct {
		n, m, pairs int
	}{
		{48, 48 * 6, 300},    // scan path, old dense table
		{600, 600 * 6, 120},  // heap path, old dense table
		{2100, 2100 * 6, 60}, // heap path, old sparse map
	}
	for _, sz := range sizes {
		rng := rand.New(rand.NewSource(int64(sz.n)))
		hosts := hostIDs(sz.n)
		g := newGraph(hosts, hostIndexOf(hosts))
		og := newOldGraph(hosts, hostIndexOf(hosts))
		stageRandom(rng, g, og, sz.n, sz.m)

		// directEdge agrees for every staged pair plus random misses.
		for k := 0; k < 500; k++ {
			src, dst := rng.Intn(sz.n), rng.Intn(sz.n)
			e, ok := g.directEdge(src, dst)
			oe, ook := og.directEdge(src, dst)
			if ok != ook || e != oe {
				t.Fatalf("n=%d directEdge(%d,%d): %+v/%v old %+v/%v", sz.n, src, dst, e, ok, oe, ook)
			}
		}

		for k := 0; k < sz.pairs; k++ {
			src, dst := rng.Intn(sz.n), rng.Intn(sz.n)
			if src == dst {
				continue
			}
			for _, maxVia := range []int{0, 1, 2} {
				comparePair(t, g, og, src, dst, maxVia, nil)
			}
			// Sampled exclusions: knock out a handful of random
			// vertices and require identical behavior.
			excluded := make([]bool, sz.n)
			for x := 0; x < 5; x++ {
				excluded[rng.Intn(sz.n)] = true
			}
			excluded[src], excluded[dst] = false, false
			comparePair(t, g, og, src, dst, 0, excluded)
			comparePair(t, g, og, src, dst, 2, excluded)
		}
	}
}

// TestDifferentialDatasetBuild cross-checks the full build path —
// buildGraph versus buildOldGraph from one measured dataset — for every
// metric, including summaries carried on the edges.
func TestDifferentialDatasetBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 40
	ds := dataset.New("diff", hostIDs(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() < 0.5 {
				continue
			}
			base := 5 + rng.Float64()*80
			addRTT(ds, i, j, base, base*1.1, base*0.95)
			if rng.Float64() < 0.3 {
				addLoss(ds, i, j, 1+rng.Intn(3), 10)
			}
		}
	}
	for _, metric := range []Metric{MetricRTT, MetricLoss, MetricPropDelay} {
		g, err := buildGraph(ds, metric, nil)
		if err != nil {
			t.Fatal(err)
		}
		og, err := buildOldGraph(ds, metric)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				e, ok := g.directEdge(i, j)
				oe, ook := og.directEdge(i, j)
				if ok != ook || e != oe {
					t.Fatalf("%v directEdge(%d,%d): %+v/%v old %+v/%v", metric, i, j, e, ok, oe, ook)
				}
			}
		}
		for k := 0; k < 400; k++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			for _, maxVia := range []int{0, 1, 2} {
				comparePair(t, g, og, src, dst, maxVia, nil)
			}
		}
	}
}
