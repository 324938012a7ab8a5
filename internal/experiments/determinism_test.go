package experiments

import (
	"bytes"
	"fmt"
	"iter"
	"testing"

	"pathsel/internal/netsim"
)

// serializeSuite renders every dataset of a suite into one canonical
// byte stream: datasets in Table 1 order, pairs in sorted key order,
// samples in recorded order. Any nondeterminism anywhere in the
// pipeline — topology synthesis, routing, the network model, probing,
// or the campaign schedulers — shows up as a byte difference.
func serializeSuite(s *Suite) []byte {
	var buf bytes.Buffer
	for _, name := range DatasetNames() {
		ds, ok := s.Dataset(name)
		if !ok {
			panic("unknown dataset " + name)
		}
		fmt.Fprintf(&buf, "dataset %s hosts=%v\n", ds.Name, ds.Hosts)
		for _, k := range ds.PairKeys() {
			p := ds.Paths[k]
			fmt.Fprintf(&buf, "  pair %v n=%d as=%v\n", k, p.Measurements, p.ASPath)
			fmt.Fprintf(&buf, "    records=%v %v\n", p.Echo.At, p.Echo.Counts)
			fmt.Fprintf(&buf, "    rtt=%v\n    loss=%v\n    xfer=%v\n",
				sampleList(p.Echo.RTTSamples()), sampleList(p.Echo.LossSamples()), p.Transfers)
		}
		for _, e := range ds.Episodes {
			// fmt prints map contents in sorted key order, so the
			// episode RTT map serializes deterministically.
			fmt.Fprintf(&buf, "  episode at=%v rtts=%v\n", e.At, e.RTTMs)
		}
	}
	return buf.Bytes()
}

// sampleList renders a sample sequence as its list of (time, value)
// pairs.
func sampleList[V any](seq iter.Seq2[netsim.Time, V]) []string {
	var out []string
	for at, v := range seq {
		out = append(out, fmt.Sprintf("{%v %v}", at, v))
	}
	return out
}

// TestBuildDeterministic is the regression test behind the repolint
// suite's reason for existing: two same-seed builds of the full
// measurement pipeline must produce byte-identical datasets. It backs
// the paper-reproduction claim that every reported number is a
// function of the seed alone, and it is exactly the test an unsorted
// map iteration or stray global-RNG call would trip.
func TestBuildDeterministic(t *testing.T) {
	build := func(conc int) []byte {
		s, err := Build(Config{Seed: 7, Preset: Quick, Concurrency: conc})
		if err != nil {
			t.Fatal(err)
		}
		return serializeSuite(s)
	}
	first := build(1)
	again := build(1)
	if !bytes.Equal(first, again) {
		t.Fatal("two sequential same-seed builds serialized differently")
	}
	// The parallel engine promises bit-identical results for any
	// worker count; cover the concurrent path against the sequential
	// baseline too.
	parallel := build(0)
	if !bytes.Equal(first, parallel) {
		t.Fatal("parallel same-seed build serialized differently from sequential build")
	}
}
