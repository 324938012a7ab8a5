package dataset_test

import (
	"os"
	"path/filepath"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/snapshot"
	"pathsel/internal/topology"
)

// A dataset file is a one-section snapshot (snapshot.WriteDataset and
// snapshot.ReadDataset); these tests check that a dataset survives the
// trip to disk and that bad files are errors, not panics.

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := dataset.New("persist", []topology.HostID{0, 1})
	k := dataset.PairKey{Src: 0, Dst: 1}
	d.RecordEcho(k, 42, []float64{10, 20}, []bool{false, false}, []topology.ASN{5, 6}, 2)
	d.AddEpisode(&dataset.Episode{At: 9, RTTMs: map[dataset.PairKey]float64{k: 15}})

	path := filepath.Join(dir, "d.snap")
	if err := snapshot.WriteDataset(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.ReadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "persist" || len(got.Hosts) != 2 {
		t.Errorf("loaded %+v", got)
	}
	rtt, ok := got.MeanRTT(k)
	if !ok || rtt.Mean != 15 || rtt.N != 2 {
		t.Errorf("loaded RTT %+v", rtt)
	}
	if len(got.Episodes) != 1 || got.Episodes[0].RTTMs[k] != 15 {
		t.Errorf("loaded episodes %+v", got.Episodes)
	}
	p := got.Paths[k]
	if len(p.ASPath) != 2 || p.ASPath[1] != 6 {
		t.Errorf("loaded AS path %v", p.ASPath)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := snapshot.ReadDataset(filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Error("loading a missing file should error")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(p, []byte("not a snapshot file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.ReadDataset(p); err == nil {
		t.Error("loading a corrupt file should error")
	}
}

func TestSaveToUnwritablePath(t *testing.T) {
	d := dataset.New("x", []topology.HostID{0, 1})
	if err := snapshot.WriteDataset("/nonexistent-dir/sub/file.snap", d); err == nil {
		t.Error("saving into a missing directory should error")
	}
}

// FuzzLoad ensures the dataset file reader never panics on malformed
// input: it must either decode successfully or return an error.
func FuzzLoad(f *testing.F) {
	// Seed with a valid file, a truncation of it, garbage and an empty
	// file.
	d := dataset.New("seed", []topology.HostID{0, 1})
	d.RecordEcho(dataset.PairKey{Src: 0, Dst: 1}, 1, []float64{10}, []bool{false}, []topology.ASN{1, 2}, 1)
	valid := filepath.Join(f.TempDir(), "valid.snap")
	if err := snapshot.WriteDataset(valid, d); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte("not a snapshot at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := snapshot.ReadDataset(p)
		if err == nil && ds == nil {
			t.Fatal("nil dataset without error")
		}
	})
}
