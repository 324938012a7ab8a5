package measure

import (
	"math"
	"sort"
	"testing"

	"pathsel/internal/dataset"
)

// gatherTimes collects every loss-observation timestamp in the dataset,
// sorted — a proxy for the measurement schedule.
func gatherTimes(ds *dataset.Dataset) []float64 {
	var ts []float64
	for _, k := range ds.PairKeys() {
		for at := range ds.Paths[k].Echo.LossSamples() {
			ts = append(ts, float64(at))
		}
	}
	sort.Float64s(ts)
	return ts
}

// TestExponentialSchedulerStatistics: the arrival process must have the
// configured mean and exponential shape (CV ~ 1).
func TestExponentialSchedulerStatistics(t *testing.T) {
	fx := newFixture(t)
	spec := baseSpec(fx)
	spec.MeanIntervalSec = 200
	spec.DurationSec = 4 * 86400
	spec.KeepSamples = 1
	ds, err := Run(fx.top, fx.prb, spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := gatherTimes(ds)
	if len(ts) < 300 {
		t.Fatalf("only %d observations", len(ts))
	}
	var gaps []float64
	for i := 1; i < len(ts); i++ {
		gaps = append(gaps, ts[i]-ts[i-1])
	}
	mean, sd := meanStd(gaps)
	// ~2% of probes fail (no recorded time), and self-pair draws skip a
	// slot, so the observed mean gap runs slightly above the spec mean.
	if mean < spec.MeanIntervalSec*0.9 || mean > spec.MeanIntervalSec*1.35 {
		t.Errorf("mean gap %.1f, want ~%.0f", mean, spec.MeanIntervalSec)
	}
	// Exponential inter-arrivals have coefficient of variation 1.
	cv := sd / mean
	if cv < 0.8 || cv > 1.25 {
		t.Errorf("gap CV %.2f, want ~1 (exponential)", cv)
	}
}

// TestUniformSchedulerStatistics: per-server uniform scheduling bounds
// every gap by twice the mean and has CV well below 1.
func TestUniformSchedulerStatistics(t *testing.T) {
	fx := newFixture(t)
	spec := baseSpec(fx)
	spec.Scheduler = PerServerUniform
	spec.MeanIntervalSec = 1200
	spec.DurationSec = 6 * 86400
	spec.KeepSamples = 1
	ds, err := Run(fx.top, fx.prb, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct per-source schedules.
	perSrc := map[int][]float64{}
	for _, k := range ds.PairKeys() {
		for at := range ds.Paths[k].Echo.LossSamples() {
			perSrc[int(k.Src)] = append(perSrc[int(k.Src)], float64(at))
		}
	}
	checked := 0
	for src, ts := range perSrc {
		if len(ts) < 50 {
			continue
		}
		sort.Float64s(ts)
		var gaps []float64
		for i := 1; i < len(ts); i++ {
			gaps = append(gaps, ts[i]-ts[i-1])
		}
		mean, sd := meanStd(gaps)
		// Failures and self-draws can merge a few uniform intervals
		// (each bounded by 2x the mean), so allow three merged
		// intervals; an exponential schedule of this size would exceed
		// this with near-certainty.
		if max := maxOf(gaps); max > 3*2*spec.MeanIntervalSec {
			t.Errorf("src %d: gap %.0f far exceeds the uniform bound %.0f", src, max, 2*spec.MeanIntervalSec)
		}
		if mean < spec.MeanIntervalSec*0.8 || mean > spec.MeanIntervalSec*1.5 {
			t.Errorf("src %d: mean gap %.1f, want ~%.0f", src, mean, spec.MeanIntervalSec)
		}
		if cv := sd / mean; cv > 0.9 {
			t.Errorf("src %d: CV %.2f too high for a uniform schedule", src, cv)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no source had enough measurements")
	}
}

// TestEpisodeSpacing: episode start times are exponentially spaced with
// the configured mean.
func TestEpisodeSpacing(t *testing.T) {
	fx := newFixture(t)
	spec := baseSpec(fx)
	spec.Scheduler = Episodes
	spec.Hosts = spec.Hosts[:6]
	spec.MeanIntervalSec = 1800
	spec.DurationSec = 6 * 86400
	ds, err := Run(fx.top, fx.prb, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Episodes) < 100 {
		t.Fatalf("only %d episodes", len(ds.Episodes))
	}
	var gaps []float64
	for i := 1; i < len(ds.Episodes); i++ {
		gaps = append(gaps, float64(ds.Episodes[i].At-ds.Episodes[i-1].At))
	}
	mean, sd := meanStd(gaps)
	if mean < spec.MeanIntervalSec*0.8 || mean > spec.MeanIntervalSec*1.2 {
		t.Errorf("mean episode gap %.1f, want ~%.0f", mean, spec.MeanIntervalSec)
	}
	if cv := sd / mean; cv < 0.75 || cv > 1.3 {
		t.Errorf("episode gap CV %.2f, want ~1", cv)
	}
	// Episodes are chronological.
	for i := 1; i < len(ds.Episodes); i++ {
		if ds.Episodes[i].At <= ds.Episodes[i-1].At {
			t.Fatal("episodes out of order")
		}
	}
}

func meanStd(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	sd = math.Sqrt(sd / float64(len(xs)-1))
	return mean, sd
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
