package pathset

import (
	"math"
	"reflect"
	"testing"

	"pathsel/internal/topology"
)

func hops(ids ...topology.HostID) []topology.HostID { return ids }

func TestLinkDisjointness(t *testing.T) {
	direct := Path{Hops: hops(0, 1)}
	viaTwo := Path{Hops: hops(0, 2, 1)}
	viaTwoThree := Path{Hops: hops(0, 2, 3, 1)}
	cases := []struct {
		name string
		a, b Path
		want float64
	}{
		{"identical", direct, direct, 0},
		{"fully disjoint", direct, viaTwo, 1},
		{"shares first hop", viaTwo, viaTwoThree, 0.5},
		{"empty", Path{}, direct, 1},
	}
	for _, c := range cases {
		if got := Disjointness(LevelLink, c.a, c.b); got != c.want {
			t.Errorf("%s: %g, want %g", c.name, got, c.want)
		}
		if got := Disjointness(LevelLink, c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): %g, want %g", c.name, got, c.want)
		}
	}
}

func TestASDisjointness(t *testing.T) {
	a := Path{ASes: []topology.ASN{10, 20, 30}}
	b := Path{ASes: []topology.ASN{20, 40}}
	if got := Disjointness(LevelAS, a, b); got != 0.5 {
		t.Errorf("one of two shared: %g, want 0.5", got)
	}
	c := Path{ASes: []topology.ASN{40, 50}}
	if got := Disjointness(LevelAS, a, c); got != 1 {
		t.Errorf("nothing shared: %g, want 1", got)
	}
	if got := Disjointness(LevelAS, a, Path{}); got != 1 {
		t.Errorf("empty AS set: %g, want 1 (vacuously disjoint)", got)
	}
	if got := Disjointness(LevelAS, a, a); got != 0 {
		t.Errorf("identical sets: %g, want 0", got)
	}
}

func TestMaxDisjointness(t *testing.T) {
	ref := Path{Hops: hops(0, 1)}
	s := PathSet{Paths: []Path{
		{Hops: hops(0, 1, 2, 1)}, // shares the 0->1 edge (contrived)
		{Hops: hops(0, 2, 1)},
		{Hops: hops(0, 3, 1)},
	}}
	if got := s.MaxDisjointness(LevelLink, ref); got != 1 {
		t.Errorf("max disjointness %g, want 1", got)
	}
	if got := (PathSet{Paths: s.Paths[:1]}).MaxDisjointness(LevelLink, ref); got != 0 {
		t.Errorf("max disjointness of the edge-sharing path %g, want 0", got)
	}
	if got := (PathSet{}).MaxDisjointness(LevelLink, ref); got != 0 {
		t.Errorf("empty set max %g, want 0", got)
	}
}

func TestByLatencySortsNaNLast(t *testing.T) {
	s := PathSet{Paths: []Path{
		{Hops: hops(0, 2, 1), Weight: 1, LatencyMs: math.NaN()},
		{Hops: hops(0, 3, 1), Weight: 2, LatencyMs: 50},
		{Hops: hops(0, 4, 1), Weight: 3, LatencyMs: 20},
	}}
	got := ByLatency{}.Select(Path{}, s, 0)
	want := []topology.HostID{4, 3, 2}
	for i, p := range got.Paths {
		if p.Hops[1] != want[i] {
			t.Fatalf("order %v, want via %v", got.Paths, want)
		}
	}
	// Original set untouched.
	if s.Paths[0].Hops[1] != 2 {
		t.Error("strategy mutated its input")
	}
	if top := (ByLatency{}).Select(Path{}, s, 1); top.Len() != 1 || top.Paths[0].Hops[1] != 4 {
		t.Errorf("n=1 pick %v", top.Paths)
	}
}

func TestMostDisjointGreedy(t *testing.T) {
	ref := Path{Hops: hops(0, 1), ASes: []topology.ASN{100}}
	shared := Path{Hops: hops(0, 2, 1), Weight: 1, ASes: []topology.ASN{100, 200}}
	clean := Path{Hops: hops(0, 3, 1), Weight: 2, ASes: []topology.ASN{300}}
	cleanToo := Path{Hops: hops(0, 4, 1), Weight: 3, ASes: []topology.ASN{300, 400}}
	s := PathSet{Paths: []Path{shared, clean, cleanToo}}
	got := MostDisjoint{Level: LevelAS}.Select(ref, s, 2)
	if got.Len() != 2 {
		t.Fatalf("kept %d, want 2", got.Len())
	}
	// First pick: fully disjoint from ref; ties broken by lower weight.
	if got.Paths[0].Hops[1] != 3 {
		t.Errorf("first pick via %d, want 3 (disjoint, lighter)", got.Paths[0].Hops[1])
	}
	// Second pick maximizes the min against ref AND the first pick:
	// cleanToo shares AS 300 with clean (0.5), shared shares 100 with
	// ref (0.5); equal scores fall to the lower weight -> shared.
	if got.Paths[1].Hops[1] != 2 {
		t.Errorf("second pick via %d, want 2", got.Paths[1].Hops[1])
	}
	if (MostDisjoint{Level: LevelAS}).Name() != "disjoint-as" {
		t.Error("name")
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{Hops: hops(0, 2, 3, 1)}
	if !reflect.DeepEqual(p.Via(), hops(2, 3)) {
		t.Errorf("via %v", p.Via())
	}
	if (Path{Hops: hops(0, 1)}).Via() != nil {
		t.Error("direct path should have nil via")
	}
	if !p.Equal(p) || p.Equal(Path{Hops: hops(0, 2, 1)}) {
		t.Error("Equal")
	}
	s := PathSet{Paths: []Path{p}}
	if best, ok := s.Best(); !ok || !best.Equal(p) {
		t.Error("Best")
	}
	if _, ok := (PathSet{}).Best(); ok {
		t.Error("empty Best must report !ok")
	}
	c := s.Clone()
	c.Paths[0] = Path{}
	if !s.Paths[0].Equal(p) {
		t.Error("Clone shares the path slice")
	}
	if LevelLink.String() != "link" || LevelAS.String() != "as" {
		t.Error("Level strings")
	}
}
