package netsim

import (
	"math/rand"
	"testing"

	"pathsel/internal/topology"
)

func benchNetwork(b *testing.B) (*topology.Topology, *Network) {
	b.Helper()
	top, err := topology.Generate(topology.DefaultConfig(topology.Era1999))
	if err != nil {
		b.Fatal(err)
	}
	return top, New(top, DefaultConfig())
}

func BenchmarkUtilization(b *testing.B) {
	top, n := benchNetwork(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Utilization(top.Links[i%len(top.Links)].ID, Time(i%86400))
	}
}

func BenchmarkEvalLinks20(b *testing.B) {
	top, n := benchNetwork(b)
	links := make([]topology.LinkID, 20)
	for i := range links {
		links[i] = top.Links[(i*37)%len(top.Links)].ID
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := n.EvalLinks(links, Time(i%86400))
		if st.DelayMs <= 0 {
			b.Fatal("no delay")
		}
	}
}

// BenchmarkEvalHostPath times one host-to-host evaluation of a 20-link
// path, the call every probe makes; run it with -benchmem to see that
// it allocates nothing.
func BenchmarkEvalHostPath(b *testing.B) {
	top, n := benchNetwork(b)
	links := make([]topology.LinkID, 20)
	for i := range links {
		links[i] = top.Links[(i*37)%len(top.Links)].ID
	}
	src, dst := top.Hosts[0].ID, top.Hosts[1].ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := n.EvalHostPath(src, dst, links, Time(i%86400))
		if err != nil || st.DelayMs <= 0 {
			b.Fatal("no delay", err)
		}
	}
}

// BenchmarkEvalRoundTrip times the round trip of BenchmarkEvalHostPath's
// path and its reverse twin links, the call every echo makes; compare
// it with two BenchmarkEvalHostPath calls.
func BenchmarkEvalRoundTrip(b *testing.B) {
	top, n := benchNetwork(b)
	fwd := make([]topology.LinkID, 20)
	for i := range fwd {
		fwd[i] = top.Links[(i*37)%len(top.Links)].ID
	}
	rev := reverseLinks(top, fwd)
	src, dst := top.Hosts[0].ID, top.Hosts[1].ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fst, rst, err := n.EvalRoundTrip(src, dst, fwd, rev, Time(i%86400))
		if err != nil || fst.DelayMs <= 0 || rst.DelayMs <= 0 {
			b.Fatal("no delay", err)
		}
	}
}

func BenchmarkSampleDelay(b *testing.B) {
	_, n := benchNetwork(b)
	rng := rand.New(rand.NewSource(1))
	st := PathState{DelayMs: 80, PropDelayMs: 55}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SampleDelay(rng, st, 20)
	}
}
