package experiments

import (
	"reflect"
	"testing"

	"pathsel/internal/core"
)

func TestMultipath(t *testing.T) {
	s := testSuite(t)
	res, err := Multipath(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs == 0 || res.K != MultipathK {
		t.Fatalf("empty exhibit: %+v", res)
	}
	if len(res.Curve) != MultipathK {
		t.Fatalf("curve has %d points, want %d", len(res.Curve), MultipathK)
	}
	if len(res.Disjointness) != res.Pairs {
		t.Fatalf("disjointness cloud %d values for %d pairs", len(res.Disjointness), res.Pairs)
	}
	for i, pt := range res.Curve {
		if pt.K != i+1 {
			t.Errorf("curve[%d].K = %d", i, pt.K)
		}
		// Best-of-k improvement and max disjointness are monotone in k:
		// adding a path can only help.
		if i > 0 {
			prev := res.Curve[i-1]
			if pt.MeanImprovementMs < prev.MeanImprovementMs {
				t.Errorf("k=%d improvement %g below k=%d's %g",
					pt.K, pt.MeanImprovementMs, prev.K, prev.MeanImprovementMs)
			}
			if pt.FullyDisjointFrac < prev.FullyDisjointFrac {
				t.Errorf("k=%d disjoint fraction fell", pt.K)
			}
			if pt.MeanMaxDisjointness < prev.MeanMaxDisjointness {
				t.Errorf("k=%d mean max disjointness fell", pt.K)
			}
		}
		if pt.FullyDisjointFrac < 0 || pt.FullyDisjointFrac > 1 {
			t.Errorf("k=%d fraction out of range: %g", pt.K, pt.FullyDisjointFrac)
		}
	}
	if len(res.Strategies) != 3 {
		t.Fatalf("strategy rows: %d", len(res.Strategies))
	}
	names := map[string]bool{}
	for _, row := range res.Strategies {
		names[row.Strategy] = true
		if row.MeanDisjointness < 0 || row.MeanDisjointness > 1 {
			t.Errorf("%s: disjointness %g out of range", row.Strategy, row.MeanDisjointness)
		}
	}
	for _, want := range []string{"latency", "loss", "disjoint-as"} {
		if !names[want] {
			t.Errorf("missing strategy row %q", want)
		}
	}
}

// TestMultipathDeterministic checks the exhibit end to end across
// worker counts: the k-set query, disjointness scoring, and strategy
// selection must be bit-identical however the search is sharded.
func TestMultipathDeterministic(t *testing.T) {
	s := testSuite(t)
	base := *s
	run := func(conc int) MultipathResult {
		cfg := base.Config
		cfg.Concurrency = conc
		withConc := base
		withConc.Config = cfg
		res, err := Multipath(&withConc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sequential := run(1)
	parallel := run(0)
	if !reflect.DeepEqual(sequential, parallel) {
		t.Fatal("multipath exhibit differs across worker counts")
	}
}

// TestQueryPresetEquivalence is the acceptance property at suite
// scale: on a built preset's UW3 dataset, Query with K=1 is
// byte-identical at several worker counts. The quick preset always runs; the full preset is covered
// unless -short.
func TestQueryPresetEquivalence(t *testing.T) {
	check := func(t *testing.T, s *Suite) {
		rs, err := core.NewAnalyzer(s.UW3).WithConcurrency(1).Query(core.QuerySpec{Metric: core.MetricRTT})
		if err != nil {
			t.Fatal(err)
		}
		want := rs.Rows
		if len(want) == 0 {
			t.Fatal("no pairs")
		}
		for _, conc := range []int{1, 4, 0} {
			rs, err := core.NewAnalyzer(s.UW3).WithConcurrency(conc).Query(core.QuerySpec{Metric: core.MetricRTT})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rs.Rows, want) {
				t.Fatalf("conc=%d: Query K=1 diverges from the sequential run on %s", conc, s.UW3.Name)
			}
		}
	}
	t.Run("quick", func(t *testing.T) { check(t, testSuite(t)) })
	t.Run("full", func(t *testing.T) {
		if testing.Short() {
			t.Skip("full preset build in -short mode")
		}
		s, err := Build(Config{Seed: 1, Preset: Full})
		if err != nil {
			t.Fatal(err)
		}
		check(t, s)
	})
}
