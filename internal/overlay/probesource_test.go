package overlay

import (
	"math"
	"math/rand"
	"testing"
)

// TestProbeSourceMatchesMathRand checks probeSource against
// rand.NewSource bit for bit over 20k seeds (edge values included) and
// mixed Float64, ExpFloat64, Int63 and Uint64 draws, some runs long
// enough to cross the switch to the fully seeded source at output
// rngTap. A toolchain whose math/rand seeds differently fails here.
func TestProbeSourceMatchesMathRand(t *testing.T) {
	pick := rand.New(rand.NewSource(5))
	p := newProbeRNG()
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, int32max - 1, math.MaxInt64, math.MinInt64, 89482311}
	for len(seeds) < 20000 {
		seeds = append(seeds, int64(mix64(uint64(len(seeds)), pick.Uint64(), 0)))
	}
	for i, seed := range seeds {
		draws := 1 + pick.Intn(60)
		if i%40 == 0 {
			draws = rngTap - 5 + pick.Intn(400)
		}
		want := rand.New(rand.NewSource(seed))
		got := p.reset(seed)
		for d := 0; d < draws; d++ {
			var g, w uint64
			switch op := pick.Intn(4); op {
			case 0:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 1:
				g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
			case 2:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			default:
				g, w = got.Uint64(), want.Uint64()
			}
			if g != w {
				t.Fatalf("seed %d, draw %d: probeSource %#x, math/rand %#x", seed, d, g, w)
			}
		}
	}
}

func BenchmarkProbeSeedAndDraw(b *testing.B) {
	p := newProbeRNG()
	for i := 0; i < b.N; i++ {
		rng := p.reset(int64(mix64(1, uint64(i), 0)))
		for d := 0; d < 10; d++ {
			rng.ExpFloat64()
		}
	}
}
