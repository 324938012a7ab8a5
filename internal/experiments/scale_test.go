package experiments

import (
	"bufio"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathsel/internal/core"
)

// TestScaleSmoke builds the planet-scale suite end to end and checks
// the substrate really is planet-scale, that the build stays inside the
// memory budget, and that the analysis produces identical output at
// every concurrency. It runs only when PATHSEL_SCALE_SMOKE=1 (CI runs
// it as a dedicated job under GOMEMLIMIT and a wall-clock timeout).
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("PATHSEL_SCALE_SMOKE") != "1" {
		t.Skip("set PATHSEL_SCALE_SMOKE=1 to run the scale smoke test")
	}
	start := time.Now()
	s, err := Build(Config{Seed: 1, Preset: Scale})
	if err != nil {
		t.Fatal(err)
	}
	buildTime := time.Since(start)
	t.Logf("scale suite built in %v", buildTime)

	stats := s.TopoUW.Stats()
	t.Logf("UW plane: %v", stats)
	if stats.ASes < 10000 {
		t.Errorf("scale preset has %d ASes, want >= 10000", stats.ASes)
	}
	if stats.Hosts < 100000 {
		t.Errorf("scale preset has %d hosts, want >= 100000", stats.Hosts)
	}
	if len(s.UW3.Hosts) < 500 {
		t.Errorf("UW3 pool has %d hosts, want >= 500 (heap searches must engage)", len(s.UW3.Hosts))
	}
	if n := len(s.UW3.PairKeys()); n == 0 {
		t.Error("UW3 collected no paths")
	} else {
		t.Logf("UW3: %d measured paths", n)
	}

	// Byte-identical analysis across concurrency on the scale dataset.
	var want []core.PairResult
	for _, workers := range []int{1, 4, 0} {
		a := core.NewAnalyzer(s.UW3).WithConcurrency(workers)
		rs, err := a.Query(core.QuerySpec{Metric: core.MetricRTT})
		if err != nil {
			t.Fatal(err)
		}
		got := rs.PairResults()
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("Query differs at concurrency %d", workers)
		}
	}

	if hwm, ok := peakRSSKB(); ok {
		t.Logf("peak RSS: %d MB", hwm/1024)
		if hwm > 8*1024*1024 {
			t.Errorf("peak RSS %d KB exceeds the 8 GB budget", hwm)
		}
	}
}

// peakRSSKB reads the process high-water resident set size from
// /proc/self/status (Linux only; ok=false elsewhere).
func peakRSSKB() (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb, true
	}
	return 0, false
}
