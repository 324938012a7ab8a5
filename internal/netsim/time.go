package netsim

import "math"

// Time is simulated time in seconds since the epoch. The epoch is
// midnight PST on a Monday, so day-of-week and time-of-day bucketing (the
// paper's Section 6.3 analysis uses PST buckets) are simple arithmetic.
type Time float64

// SecondsPerDay is the length of a simulated day.
const SecondsPerDay = 86400

// SecondsPerWeek is the length of a simulated week.
const SecondsPerWeek = 7 * SecondsPerDay

// PSTHour returns the time of day in hours [0,24) in PST.
func (t Time) PSTHour() float64 {
	s := math.Mod(float64(t), SecondsPerDay)
	if s < 0 {
		s += SecondsPerDay
	}
	return s / 3600
}

// DayIndex returns the day number since the epoch (0 = Monday).
func (t Time) DayIndex() int {
	return int(math.Floor(float64(t) / SecondsPerDay))
}

// Weekend reports whether the time falls on Saturday or Sunday.
func (t Time) Weekend() bool {
	d := t.DayIndex() % 7
	if d < 0 {
		d += 7
	}
	return d >= 5
}

// LocalHour returns the time of day in hours [0,24) at the given
// longitude, using solar offset from PST (UTC-8, reference longitude
// -120°). Link load peaks during the local working day, which is what
// produces the east-coast-peaks-earlier effect visible in the paper's
// PST-bucketed graphs.
func (t Time) LocalHour(lonDeg float64) float64 {
	return localHour(t.PSTHour(), (lonDeg+120)/15)
}

// localHour wraps h = pst+offset onto [0,24), bit for bit as
// math.Mod(h, 24) shifted into [0,24). The link kernel calls it per
// link, so it skips math.Mod where a cheaper expression is provably
// equal. math.Mod returns the exact remainder. For h in [0,24) that is
// h itself. For h in [24,48) it is h-24, and the subtraction h-24 is
// exact because 24/2 <= h <= 2*24 (Sterbenz's lemma). PST hours lie in
// [0,24) and longitude offsets in [-4,20], so the math.Mod fallback
// serves only longitudes west of 120°W while their local date is still
// the previous day.
func localHour(pst, offset float64) float64 {
	h := pst + offset
	switch {
	case h >= 0 && h < 24:
		return h
	case h >= 24 && h < 48:
		return h - 24
	}
	h = math.Mod(h, 24)
	if h < 0 {
		h += 24
	}
	return h
}

// Bucket is a time-of-day class used by the paper's Figures 9 and 10:
// weekends, plus four six-hour weekday periods in PST.
type Bucket int

const (
	// BucketWeekend is Saturday and Sunday.
	BucketWeekend Bucket = iota
	// BucketNight is weekdays 00:00-06:00 PST.
	BucketNight
	// BucketMorning is weekdays 06:00-12:00 PST.
	BucketMorning
	// BucketAfternoon is weekdays 12:00-18:00 PST.
	BucketAfternoon
	// BucketEvening is weekdays 18:00-24:00 PST.
	BucketEvening
)

// String implements fmt.Stringer using the paper's axis labels.
func (b Bucket) String() string {
	switch b {
	case BucketWeekend:
		return "weekend"
	case BucketNight:
		return "0000-0600"
	case BucketMorning:
		return "0600-1200"
	case BucketAfternoon:
		return "1200-1800"
	case BucketEvening:
		return "1800-2400"
	default:
		return "unknown"
	}
}

// Buckets lists all time-of-day buckets in display order.
func Buckets() []Bucket {
	return []Bucket{BucketWeekend, BucketNight, BucketMorning, BucketAfternoon, BucketEvening}
}

// BucketOf classifies a time.
func BucketOf(t Time) Bucket {
	if t.Weekend() {
		return BucketWeekend
	}
	switch h := t.PSTHour(); {
	case h < 6:
		return BucketNight
	case h < 12:
		return BucketMorning
	case h < 18:
		return BucketAfternoon
	default:
		return BucketEvening
	}
}
