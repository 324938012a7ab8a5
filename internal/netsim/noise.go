package netsim

import "math"

// Deterministic value noise. Every stochastic process in the network
// model (load drift, jitter, outages) is a pure function of (entity ID,
// time, seed), so that concurrent measurements of different paths observe
// a consistent network state — exactly what the paper's UW4-A
// "simultaneous episodes" methodology requires — and so that experiments
// are reproducible from the seed alone.

// hash64 mixes three 64-bit values into one (splitmix64-style finalizer).
func hash64(a, b, c uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F ^ c*0x165667B19E3779F9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// unit converts a hash to a float64 in [0,1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// noiseGrid is the time-dependent part of a value-noise signal at one
// instant and period: the two grid points around the instant and the
// cosine weight between them. It depends only on (t, period), so one
// grid serves every entity sampled at that instant.
type noiseGrid struct {
	k0, k1 uint64
	w      float64
}

// gridAt locates t on the noise grid of the given period (seconds).
func gridAt(t Time, period float64) noiseGrid {
	x := float64(t) / period
	k := math.Floor(x)
	frac := x - k
	// Cosine interpolation avoids derivative discontinuities at grid
	// points that linear interpolation would introduce.
	w := (1 - math.Cos(frac*math.Pi)) / 2
	return noiseGrid{k0: uint64(int64(k)), k1: uint64(int64(k) + 1), w: w}
}

// at returns the value noise of an entity: a smooth pseudo-random
// signal in [0,1] whose values at integer grid points are independent
// uniforms, cosine-interpolated between them.
func (g *noiseGrid) at(seed, entity uint64) float64 {
	a := unit(hash64(seed, entity, g.k0))
	b := unit(hash64(seed, entity, g.k1))
	return a*(1-g.w) + b*g.w
}

// outageSlot returns the hour-long outage slot containing t and the
// seconds elapsed since the slot began.
func outageSlot(t Time) (slot int64, inSlot float64) {
	slot = int64(math.Floor(float64(t) / 3600))
	return slot, float64(t) - float64(slot)*3600
}

// eventAt reports whether a rare event (an outage window) is active for
// the entity at inSlot seconds into the given outage slot. Each window
// of length windowSec occurs within an hour-long slot with probability
// probPerHour, at a pseudo-random offset within the slot.
func eventAt(seed, entity uint64, slot int64, inSlot, probPerHour, windowSec float64) bool {
	h := hash64(seed^0xABCD, entity, uint64(slot))
	if unit(h) >= probPerHour {
		return false
	}
	// Window offset within the slot, from an independent hash.
	off := unit(hash64(seed^0xFEED, entity, uint64(slot))) * (3600 - windowSec)
	return inSlot >= off && inSlot < off+windowSec
}
