package overlay

import "math/rand"

// math/rand's additive lagged Fibonacci generator: a 607-word register
// read at a tap 273 words back.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// seedMul is the multiplier of the Lehmer generator that seeds the
	// register: x(n+1) = seedMul·x(n) mod int32max.
	seedMul = 48271
	// seedSkip is the number of Lehmer steps seeding discards before
	// the first register word; each word then takes three steps.
	seedSkip = 20
)

// seedPow[n] is seedMul^n mod int32max, so the n-th Lehmer state of a
// seeding is one multiplication away from its start.
var seedPow = func() (p [seedSkip + 3*rngLen + 1]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * seedMul % int32max
	}
	return p
}()

// probeSource is a rand.Source64 whose output is bit-identical to
// rand.NewSource(seed)'s, without filling the 607-word register at
// every Seed. Until output rngTap the generator has not yet read a word
// it wrote, so output k is the sum of seeded words rngLen-rngTap-1-k
// and rngLen-1-k, and each seeded word is three multiplications from
// the seed. A probe draws a few dozen values; from output rngTap on,
// the source hands over to a fully seeded math/rand source.
type probeSource struct {
	seed int64         // as given to Seed
	x    uint64        // the seed reduced as math/rand reduces it
	k    int           // outputs drawn since Seed
	full rand.Source64 // seeded when k reaches rngTap; allocated on first use
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *probeSource) Seed(seed int64) {
	s.seed, s.k = seed, 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311 // math/rand's stand-in for a zero seed
	}
	s.x = uint64(seed)
}

// word returns word i of the register math/rand seeds from s.x.
func (s *probeSource) word(i int) int64 {
	n := seedSkip + 1 + 3*i
	u := int64(s.x*seedPow[n]%int32max) << 40
	u ^= int64(s.x*seedPow[n+1]%int32max) << 20
	u ^= int64(s.x * seedPow[n+2] % int32max)
	return u ^ rngCooked[i]
}

// Uint64 returns the next output of the sequence.
func (s *probeSource) Uint64() uint64 {
	k := s.k
	if k < rngTap {
		s.k++
		return uint64(s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k))
	}
	if k == rngTap {
		if s.full == nil {
			s.full = rand.NewSource(0).(rand.Source64)
		}
		s.full.Seed(s.seed)
		for i := 0; i < rngTap; i++ {
			s.full.Uint64()
		}
		s.k++
	}
	return s.full.Uint64()
}

// Int63 returns the next output with its top bit cleared.
func (s *probeSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// probeRNG is one worker's probe generator: a *rand.Rand over a
// probeSource that is re-seeded for every probe.
type probeRNG struct {
	src probeSource
	rng *rand.Rand
}

func newProbeRNG() *probeRNG {
	p := &probeRNG{}
	p.rng = rand.New(&p.src)
	return p
}

// reset re-seeds the generator as rand.New(rand.NewSource(seed)) would
// start, and returns it.
func (p *probeRNG) reset(seed int64) *rand.Rand {
	p.src.Seed(seed)
	return p.rng
}
