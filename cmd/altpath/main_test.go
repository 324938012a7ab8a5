package main

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/experiments"
	"pathsel/internal/netsim"
	"pathsel/internal/snapshot"
	"pathsel/internal/topology"
)

// writeTestDataset builds a small hand-made dataset on disk.
func writeTestDataset(t *testing.T) string {
	t.Helper()
	ds := dataset.New("cli-test", []topology.HostID{0, 1, 2})
	add := func(src, dst int, rtt float64, n int) {
		k := dataset.PairKey{Src: topology.HostID(src), Dst: topology.HostID(dst)}
		for i := 0; i < n; i++ {
			ds.RecordEcho(k, netsim.Time(i), []float64{rtt + float64(i%5)}, []bool{false}, nil, 1)
		}
	}
	add(0, 1, 100, 40)
	add(0, 2, 20, 40)
	add(2, 1, 20, 40)
	path := filepath.Join(t.TempDir(), "ds.snap")
	if err := snapshot.WriteDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

// runFile loads a saved dataset and runs the analysis, mirroring the
// CLI's file mode.
func runFile(path, metric string, maxVia, workers int, plot, episodes bool) error {
	ds, err := loadDataset("", "", 0, workers, path)
	if err != nil {
		return err
	}
	return run(ds, metric, maxVia, 1, workers, plot, episodes)
}

func TestRunMetrics(t *testing.T) {
	path := writeTestDataset(t)
	for _, metric := range []string{"rtt", "loss", "prop"} {
		if err := runFile(path, metric, 0, 0, true, false); err != nil {
			t.Errorf("metric %s: %v", metric, err)
		}
	}
}

func TestRunOneHop(t *testing.T) {
	path := writeTestDataset(t)
	if err := runFile(path, "rtt", 1, 0, false, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunPathSets(t *testing.T) {
	path := writeTestDataset(t)
	ds, err := loadDataset("", "", 0, 0, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(ds, "rtt", 0, 3, 0, false, false); err != nil {
		t.Fatalf("k=3 run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestDataset(t)
	if err := runFile(path, "bogus", 0, 0, false, false); err == nil {
		t.Error("unknown metric accepted")
	}
	if err := runFile(filepath.Join(t.TempDir(), "missing.snap"), "rtt", 0, 0, false, false); err == nil {
		t.Error("missing file accepted")
	}
	// A dataset with no comparable pairs must error cleanly.
	empty := dataset.New("empty", []topology.HostID{0, 1})
	p := filepath.Join(t.TempDir(), "empty.snap")
	if err := snapshot.WriteDataset(p, empty); err != nil {
		t.Fatal(err)
	}
	if err := runFile(p, "rtt", 0, 0, false, false); err == nil {
		t.Error("empty dataset accepted")
	}
	// Files that are not one-dataset snapshots are load errors, never
	// panics.
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New("six", []topology.HostID{0, 1})
	suite, err := snapshot.Encode(&experiments.Suite{UW1: ds, UW3: ds, UW4A: ds, UW4B: ds, D2: ds, N2: ds})
	if err != nil {
		t.Fatal(err)
	}
	// The first 64 bytes of a dataset file written by the retired
	// gzip-gob format.
	legacy, err := hex.DecodeString("1f8b08000000000000ff6c92496f13411085dfeb9938368a22b11c904020368110" +
		"e484e008968c040447963d37cb8796d35984edb1a69b834f0408214008216c")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error // nil: any error
	}{
		{"suite.snap", suite, nil},
		{"truncated.snap", valid[:len(valid)/2], snapshot.ErrChecksum},
		{"legacy.gob.gz", legacy, snapshot.ErrMagic},
	}
	for _, c := range cases {
		p := filepath.Join(t.TempDir(), c.name)
		if err := os.WriteFile(p, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := runFile(p, "rtt", 0, 0, false, false)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: got %v, want an error (%v)", c.name, err, c.want)
		}
	}
}

func TestRunBandwidthAndEpisodes(t *testing.T) {
	// Bandwidth needs transfers; episodes need episode data.
	ds := dataset.New("bw", []topology.HostID{0, 1, 2})
	for i := 0; i < 3; i++ {
		ds.RecordTransfer(dataset.PairKey{Src: 0, Dst: 1},
			dataset.TransferSample{MeanRTTMs: 200, LossRate: 0.03, Packets: 100})
		ds.RecordTransfer(dataset.PairKey{Src: 0, Dst: 2},
			dataset.TransferSample{MeanRTTMs: 50, LossRate: 0.01, Packets: 100})
		ds.RecordTransfer(dataset.PairKey{Src: 2, Dst: 1},
			dataset.TransferSample{MeanRTTMs: 50, LossRate: 0.01, Packets: 100})
	}
	ds.AddEpisode(&dataset.Episode{At: 0, RTTMs: map[dataset.PairKey]float64{
		{Src: 0, Dst: 1}: 100, {Src: 0, Dst: 2}: 20, {Src: 2, Dst: 1}: 20,
	}})
	p := filepath.Join(t.TempDir(), "bw.snap")
	if err := snapshot.WriteDataset(p, ds); err != nil {
		t.Fatal(err)
	}
	if err := runFile(p, "bw", 0, 0, false, false); err != nil {
		t.Errorf("bandwidth run: %v", err)
	}
	if err := runFile(p, "rtt", 0, 0, false, true); err != nil {
		t.Errorf("episodes run: %v", err)
	}
	// A dataset without transfers fails the bw metric cleanly.
	empty := dataset.New("no-transfers", []topology.HostID{0, 1})
	empty.RecordEcho(dataset.PairKey{Src: 0, Dst: 1}, 0, []float64{1}, []bool{false}, nil, 1)
	p2 := filepath.Join(t.TempDir(), "nt.snap")
	if err := snapshot.WriteDataset(p2, empty); err != nil {
		t.Fatal(err)
	}
	if err := runFile(p2, "bw", 0, 0, false, false); err == nil {
		t.Error("bw on transfer-less dataset should error")
	}
}
