package experiments_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"pathsel/internal/experiments"
	"pathsel/internal/snapshot"
)

// pinnedDigests are the sha256 sums of snapshot.Encode for quick-preset
// builds. A snapshot holds every dataset sample bit for bit, so any
// change to the network model, probing or the campaigns that moves a
// single float changes its digest; optimizations of those layers must
// leave these untouched.
//
// After an intended model change, run
//
//	go test -run TestPinnedSnapshotDigests -v ./internal/experiments
//
// on amd64, check that the change in outputs is the one intended (a
// cmd/figures run against the committed results/ files shows it), and
// paste the printed digests here.
var pinnedDigests = map[int64]string{
	1: "934c6f337f7ff750b89e6f81cd34b7e877475362b0968868d4a95c797265c118",
	2: "f8f736ac579711096e88b38907c6aba68f00fba9ad989dffaf5a7f59201e4ec4",
}

func TestPinnedSnapshotDigests(t *testing.T) {
	// math.Exp is assembly on amd64 and pure Go elsewhere, and other
	// architectures may fuse multiply-adds, so the last bit of a sample
	// may legitimately differ there.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	for _, seed := range []int64{1, 2} {
		s, err := experiments.BuildContext(context.Background(), experiments.Config{Seed: seed, Preset: experiments.Quick})
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		data, err := snapshot.Encode(s)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		sum := sha256.Sum256(data)
		got := hex.EncodeToString(sum[:])
		t.Logf("seed %d: %s", seed, got)
		if got != pinnedDigests[seed] {
			t.Errorf("quick seed %d snapshot digest %s, pinned %s", seed, got, pinnedDigests[seed])
		}
	}
}
