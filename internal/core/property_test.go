package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pathsel/internal/dataset"
	"pathsel/internal/stats"
	"pathsel/internal/topology"
)

// randomDataset builds a random measurement graph from a quick-generated
// seed; helper for the property tests below.
func randomDataset(seed int64, n int, density float64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	hosts := make([]topology.HostID, n)
	for i := range hosts {
		hosts[i] = topology.HostID(i)
	}
	ds := dataset.New("prop", hosts)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() > density {
				continue
			}
			addRTT(ds, i, j, 1+math.Floor(rng.Float64()*200))
			// Give the same pair a loss history too.
			k := dataset.PairKey{Src: topology.HostID(i), Dst: topology.HostID(j)}
			lossN := 20
			lost := rng.Intn(5)
			for s := 0; s < lossN; s++ {
				isLost := s < lost
				ds.RecordEcho(k, 1000, []float64{5}, []bool{isLost}, nil, 1)
			}
		}
	}
	return ds
}

// TestPropertyOneHopIsUpperBoundForUnrestricted: the unrestricted best
// alternate is never worse than the best one-hop alternate (superset of
// candidate paths).
func TestPropertyOneHopIsUpperBoundForUnrestricted(t *testing.T) {
	f := func(seed int64) bool {
		ds := randomDataset(seed, 6, 0.6)
		a := NewAnalyzer(ds)
		rs, err := a.Query(QuerySpec{Metric: MetricRTT, MaxVia: 1})
		if err != nil {
			return false
		}
		oneHop := rs.Rows
		rs, err = a.Query(QuerySpec{Metric: MetricRTT})
		if err != nil {
			return false
		}
		unrestricted := rs.Rows
		byKey := map[dataset.PairKey]float64{}
		for _, r := range unrestricted {
			byKey[r.Key] = r.AltValue
		}
		for _, r := range oneHop {
			u, ok := byKey[r.Key]
			if !ok {
				// Unrestricted search must find at least everything
				// one-hop finds.
				return false
			}
			if u > r.AltValue+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLossValuesAreProbabilities: composed loss along any best
// alternate stays within [0, 1] and improvement never exceeds the
// default loss rate.
func TestPropertyLossValuesAreProbabilities(t *testing.T) {
	f := func(seed int64) bool {
		ds := randomDataset(seed, 6, 0.6)
		a := NewAnalyzer(ds)
		rs, err := a.Query(QuerySpec{Metric: MetricLoss})
		if err != nil {
			return false
		}
		results := rs.Rows
		for _, r := range results {
			if r.AltValue < 0 || r.AltValue > 1 {
				return false
			}
			if r.DefaultValue < 0 || r.DefaultValue > 1 {
				return false
			}
			if r.Improvement() > r.DefaultValue+1e-12 {
				return false // cannot improve by more than the whole loss
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAlternateNeverUsesDirectEdge: the best alternate's relay
// list is nonempty — it never degenerates to the direct path.
func TestPropertyAlternateNeverUsesDirectEdge(t *testing.T) {
	f := func(seed int64) bool {
		ds := randomDataset(seed, 7, 0.5)
		a := NewAnalyzer(ds)
		for _, metric := range []Metric{MetricRTT, MetricLoss, MetricPropDelay} {
			rs, err := a.Query(QuerySpec{Metric: metric})
			if err != nil {
				return false
			}
			results := rs.Rows
			for _, r := range results {
				if len(r.Via) == 0 {
					return false
				}
				for _, v := range r.Via {
					if v == r.Key.Src || v == r.Key.Dst {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyVerdictsPartition: the four verdict classes always
// partition the result set.
func TestPropertyVerdictsPartition(t *testing.T) {
	f := func(seed int64) bool {
		ds := randomDataset(seed, 6, 0.6)
		a := NewAnalyzer(ds)
		rs, err := a.Query(QuerySpec{Metric: MetricRTT})
		if err != nil {
			return false
		}
		results := rs.Rows
		v := ClassifyVerdicts(results, 0.95)
		return v.Total() == len(results) &&
			v.Better >= 0 && v.Worse >= 0 && v.Indeterminate >= 0 && v.BothZero >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEpisodeBestIsMinimal: within an episode, the reported best
// alternate for a pair is at most the cost through any specific relay.
func TestPropertyEpisodeBestIsMinimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 5
		hosts := make([]topology.HostID, n)
		for i := range hosts {
			hosts[i] = topology.HostID(i)
		}
		ds := dataset.New("ep", hosts)
		ep := &dataset.Episode{At: 0, RTTMs: map[dataset.PairKey]float64{}}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < 0.2 {
					continue
				}
				ep.RTTMs[dataset.PairKey{Src: hosts[i], Dst: hosts[j]}] = 1 + rng.Float64()*100
			}
		}
		ds.AddEpisode(ep)
		res, err := NewAnalyzer(ds).AnalyzeEpisodes()
		if err != nil {
			// No pair had an alternate; acceptable for sparse draws.
			return true
		}
		// Reconstruct: for each pair with direct+relay coverage, the
		// unaveraged diff must be >= direct - (via relay cost) for every
		// relay (the best alternate is minimal, so diff is maximal).
		idx := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				k := dataset.PairKey{Src: hosts[i], Dst: hosts[j]}
				direct, ok := ep.RTTMs[k]
				if !ok {
					continue
				}
				// Does any alternate (of any length) exist? BFS over the
				// episode's edges, forbidding the direct hop.
				if !altReachable(ep, hosts, i, j) {
					continue
				}
				// Best one-hop relay cost, if any (infinity otherwise).
				bestRelayCost := math.Inf(1)
				for r := 0; r < n; r++ {
					if r == i || r == j {
						continue
					}
					c1, ok1 := ep.RTTMs[dataset.PairKey{Src: hosts[i], Dst: hosts[r]}]
					c2, ok2 := ep.RTTMs[dataset.PairKey{Src: hosts[r], Dst: hosts[j]}]
					if ok1 && ok2 && c1+c2 < bestRelayCost {
						bestRelayCost = c1 + c2
					}
				}
				if idx >= len(res.Unaveraged) {
					return false
				}
				diff := res.Unaveraged[idx]
				idx++
				// The best alternate can use longer chains, so it is at
				// least as good as the best one-hop relay.
				if diff < direct-bestRelayCost-1e-9 {
					return false
				}
			}
		}
		return idx == len(res.Unaveraged)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertySumSummariesNeverShrinksVariance: composing hop summaries
// produces a squared standard error equal to the sum of the parts'.
func TestPropertyComposedSEMatchesParts(t *testing.T) {
	f := func(m1, m2 float64, v1, v2 uint8) bool {
		if math.IsNaN(m1) || math.IsNaN(m2) {
			return true
		}
		a := stats.Summary{N: 10, Mean: m1, Var: float64(v1)}
		b := stats.Summary{N: 20, Mean: m2, Var: float64(v2)}
		sum := stats.SumSummaries(a, b)
		want := a.SE2() + b.SE2()
		return math.Abs(sum.SE2()-want) < 1e-9*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// altReachable reports whether dst is reachable from src over the
// episode's edges without using the direct src->dst edge.
func altReachable(ep *dataset.Episode, hosts []topology.HostID, src, dst int) bool {
	n := len(hosts)
	seen := make([]bool, n)
	seen[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := 0; v < n; v++ {
			if seen[v] || v == u {
				continue
			}
			if u == src && v == dst {
				continue // forbidden direct edge
			}
			if _, ok := ep.RTTMs[dataset.PairKey{Src: hosts[u], Dst: hosts[v]}]; !ok {
				continue
			}
			if v == dst {
				return true
			}
			seen[v] = true
			queue = append(queue, v)
		}
	}
	return false
}
