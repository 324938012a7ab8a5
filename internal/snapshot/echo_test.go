package snapshot

import (
	"bytes"
	"iter"
	"math"
	"slices"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// sample is one (time, value) element of a sample sequence.
type sample[V any] struct {
	At netsim.Time
	V  V
}

// firstSamples collects up to n leading elements of seq.
func firstSamples[V any](seq iter.Seq2[netsim.Time, V], n int) []sample[V] {
	var out []sample[V]
	for at, v := range seq {
		if len(out) == n {
			break
		}
		out = append(out, sample[V]{at, v})
	}
	return out
}

// perSample builds echo storage holding any two sample sequences, one
// record per sample, so a test can encode sequences that no recorded
// invocation would produce.
func perSample(rtt []sample[float64], loss []sample[bool]) dataset.Echoes {
	var e dataset.Echoes
	for _, s := range rtt {
		e.At = append(e.At, s.At)
		e.Counts = append(e.Counts, dataset.EchoCounts{RTT: 1})
		e.RTTMs = append(e.RTTMs, s.V)
	}
	for _, s := range loss {
		e.At = append(e.At, s.At)
		e.Counts = append(e.Counts, dataset.EchoCounts{Loss: 1})
		e.Lost = append(e.Lost, s.V)
	}
	return e
}

// sameSamples reports whether seq yields exactly want, comparing times
// and floats as bit patterns.
func sameSamples[V comparable](seq iter.Seq2[netsim.Time, V], want []sample[V]) bool {
	got := firstSamples(seq, math.MaxInt)
	return slices.EqualFunc(got, want, func(a, b sample[V]) bool {
		if math.Float64bits(float64(a.At)) != math.Float64bits(float64(b.At)) {
			return false
		}
		if x, ok := any(a.V).(float64); ok {
			return math.Float64bits(x) == math.Float64bits(any(b.V).(float64))
		}
		return a.V == b.V
	})
}

// record is an expected invocation record: its time and counts.
type record struct {
	At        netsim.Time
	RTT, Loss uint8
}

// samplesAt builds one sample at time at per value.
func samplesAt[V any](at netsim.Time, vals ...V) []sample[V] {
	out := make([]sample[V], len(vals))
	for i, v := range vals {
		out[i] = sample[V]{at, v}
	}
	return out
}

// TestDecodeGroupsEchoRecords: decoding groups hand-built RTT and loss
// sequences into the documented invocation records, the decoded
// samples are the encoded ones bit for bit, and re-encoding gives the
// same bytes.
func TestDecodeGroupsEchoRecords(t *testing.T) {
	nan := netsim.Time(math.NaN())
	otherNaN := netsim.Time(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1))
	negZero := netsim.Time(math.Copysign(0, -1))
	long := make([]float64, 300)
	longLost := make([]bool, 300)
	for i := range long {
		long[i] = float64(i)
		longLost[i] = i%7 == 0
	}
	cases := []struct {
		name string
		rtt  []sample[float64]
		loss []sample[bool]
		want []record
	}{
		{
			name: "times differ",
			rtt:  append(samplesAt[float64](1, 10), samplesAt[float64](2, 20)...),
			loss: samplesAt(3, false),
			want: []record{{3, 0, 1}, {1, 1, 0}, {2, 1, 0}},
		},
		{
			name: "every sample lost",
			rtt:  samplesAt[float64](2, 20, 21),
			loss: append(samplesAt(1, true, true, true), samplesAt(2, false, true, false)...),
			want: []record{{1, 0, 3}, {2, 2, 3}},
		},
		{
			name: "keep one (D2)",
			rtt:  append(samplesAt[float64](1, 10, 11), samplesAt[float64](2, 20)...),
			loss: append(samplesAt(1, true), samplesAt(2, false)...),
			want: []record{{1, 2, 1}, {2, 1, 1}},
		},
		{
			name: "NaN and -0 times",
			rtt:  append(append(samplesAt[float64](nan, 10, 11), samplesAt[float64](otherNaN, 12)...), samplesAt[float64](negZero, 13)...),
			loss: append(samplesAt(nan, false), samplesAt(0, true)...),
			want: []record{{nan, 2, 1}, {0, 0, 1}, {otherNaN, 1, 0}, {negZero, 1, 0}},
		},
		{
			name: "run longer than a record",
			rtt:  samplesAt[float64](5, long...),
			loss: samplesAt(5, longLost...),
			want: []record{{5, 255, 255}, {5, 45, 45}},
		},
		{
			name: "no samples",
			want: nil,
		},
	}
	k := dataset.PairKey{Src: 0, Dst: 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := dataset.New("echo", []topology.HostID{0, 1})
			d.Paths[k] = &dataset.PathData{Key: k, Measurements: 1, Echo: perSample(tc.rtt, tc.loss)}
			data, err := encode(0, 0, []string{d.Name}, []*dataset.Dataset{d})
			if err != nil {
				t.Fatal(err)
			}
			_, sets, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			e := sets[d.Name].Paths[k].Echo
			var got []record
			for i, at := range e.At {
				got = append(got, record{at, e.Counts[i].RTT, e.Counts[i].Loss})
			}
			if !slices.EqualFunc(got, tc.want, func(a, b record) bool {
				return math.Float64bits(float64(a.At)) == math.Float64bits(float64(b.At)) && a.RTT == b.RTT && a.Loss == b.Loss
			}) {
				t.Errorf("records %v, want %v", got, tc.want)
			}
			if !sameSamples(e.RTTSamples(), tc.rtt) || !sameSamples(e.LossSamples(), tc.loss) {
				t.Error("decoded samples differ from the encoded ones")
			}
			again, err := encode(0, 0, []string{d.Name}, []*dataset.Dataset{sets[d.Name]})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Error("re-encoding differs")
			}
		})
	}
}

// decodeAllocBudget caps the bytes decoding the quick seed-1 snapshot
// allocates. Decode measured about 2.30 MB with invocation records;
// per-sample RTT and loss structs took about 4.32 MB.
const decodeAllocBudget = 2_400_000

// TestDecodeAllocationBudget keeps decoded sample storage compact:
// decoding the quick seed-1 snapshot must allocate at most
// decodeAllocBudget.
func TestDecodeAllocationBudget(t *testing.T) {
	data, err := Encode(buildQuick(t))
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > decodeAllocBudget {
		t.Errorf("decoding the quick snapshot allocates %d B, budget %d B", got, decodeAllocBudget)
	} else {
		t.Logf("decoding the quick snapshot allocates %d B (budget %d B, %d runs)", got, decodeAllocBudget, res.N)
	}
}
