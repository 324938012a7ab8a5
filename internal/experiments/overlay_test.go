package experiments

import (
	"reflect"
	"testing"
)

func TestOverlayExhibit(t *testing.T) {
	if testing.Short() {
		t.Skip("overlay exhibit replays hours of control loop")
	}
	s := testSuite(t)
	res, err := Overlay(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 8 || res.Pairs != 28 {
		t.Fatalf("quick exhibit has %d nodes / %d pairs", res.Nodes, res.Pairs)
	}
	if len(res.Budgets) != 3 {
		t.Fatalf("got %d budgets, want 3", len(res.Budgets))
	}
	if res.Epochs < 2 {
		t.Fatalf("failure timeline has only %d epochs; no outages to react to", res.Epochs)
	}
	if len(res.OverlayRTTs) == 0 ||
		len(res.OverlayRTTs) != len(res.DefaultRTTs) ||
		len(res.OverlayRTTs) != len(res.OptimalRTTs) {
		t.Fatalf("RTT point clouds inconsistent: %d/%d/%d",
			len(res.OverlayRTTs), len(res.DefaultRTTs), len(res.OptimalRTTs))
	}
	// The offline optimum bounds both routes at every point. Overlay vs
	// default is ordered only on average (checked below): the
	// controller acts on stale probes, so at some points it picked a
	// relay that ground truth makes slower than the direct path.
	for i, opt := range res.OptimalRTTs {
		if opt > res.OverlayRTTs[i] || opt > res.DefaultRTTs[i] {
			t.Fatalf("point %d of %d: optimal %.6f ms above overlay %.6f or default %.6f",
				i, len(res.OptimalRTTs), opt, res.OverlayRTTs[i], res.DefaultRTTs[i])
		}
	}

	for _, b := range res.Budgets {
		// The acceptance ordering: overlay strictly between default and
		// the offline optimum on both availability and RTT.
		if !(b.Default.Availability < b.Overlay.Availability) ||
			!(b.Overlay.Availability < b.Optimal.Availability) {
			t.Errorf("budget %.1f: availability not ordered: default %.4f overlay %.4f optimal %.4f",
				b.ProbesPerSec, b.Default.Availability, b.Overlay.Availability, b.Optimal.Availability)
		}
		if !(b.Optimal.MeanRTTMs <= b.Overlay.MeanRTTMs) ||
			!(b.Overlay.MeanRTTMs < b.Default.MeanRTTMs) {
			t.Errorf("budget %.1f: RTT not ordered: optimal %.3f overlay %.3f default %.3f",
				b.ProbesPerSec, b.Optimal.MeanRTTMs, b.Overlay.MeanRTTMs, b.Default.MeanRTTMs)
		}
		if len(b.Reactions) == 0 {
			t.Errorf("budget %.1f: no failover reactions measured", b.ProbesPerSec)
		}
		if b.OutagesDetected == 0 || b.Switches == 0 {
			t.Errorf("budget %.1f: outages %d, switches %d", b.ProbesPerSec, b.OutagesDetected, b.Switches)
		}
	}

	// More probes must not cost more probes per second than configured
	// allows by orders of magnitude, and budgets must differ.
	if res.Budgets[0].ProbesSent >= res.Budgets[2].ProbesSent {
		t.Errorf("probe counts not increasing with budget: %d vs %d",
			res.Budgets[0].ProbesSent, res.Budgets[2].ProbesSent)
	}

	// Determinism: a second run is identical.
	res2, err := Overlay(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("overlay exhibit is not deterministic")
	}
}
