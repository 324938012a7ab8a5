package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/snapshot"
	"pathsel/internal/trace"
)

// readDataset reads the dataset file run saved at path and checks that
// it round-trips: writing the loaded dataset back yields the same bytes.
func readDataset(t *testing.T, path string) *dataset.Dataset {
	t.Helper()
	ds, err := snapshot.ReadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	again := path + ".again"
	if err := snapshot.WriteDataset(again, ds); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s does not round-trip: re-encoded %d bytes differ from the %d saved", path, len(got), len(want))
	}
	return ds
}

func TestRunSavesDataset(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.snap")
	err := run("1999", "na", 8, 1, 1.0, 60, "pairs", "traceroute", 10, out, "")
	if err != nil {
		t.Fatal(err)
	}
	ds := readDataset(t, out)
	if len(ds.Paths) == 0 {
		t.Error("saved dataset has no paths")
	}
	c := ds.Characteristics()
	if c.Hosts < 2 || c.Measurements == 0 {
		t.Errorf("characteristics %+v", c)
	}
}

// TestRunTransfer also covers the longest era and region names: the
// dataset name must still fit a snapshot section name.
func TestRunTransfer(t *testing.T) {
	out := filepath.Join(t.TempDir(), "n2.snap")
	if err := run("1995", "world", 8, 2, 1.0, 120, "pairs", "transfer", 0, out, ""); err != nil {
		t.Fatal(err)
	}
	ds := readDataset(t, out)
	if ds.Name != "sim-1995-world" {
		t.Errorf("dataset name %q, want sim-1995-world", ds.Name)
	}
	found := false
	for _, k := range ds.PairKeys() {
		if len(ds.Paths[k].Transfers) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("transfer campaign recorded no transfers")
	}
}

func TestRunEpisodes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ep.snap")
	if err := run("1999", "na", 6, 3, 0.5, 7200, "episodes", "traceroute", 0, out, ""); err != nil {
		t.Fatal(err)
	}
	ds := readDataset(t, out)
	if len(ds.Episodes) == 0 {
		t.Error("episode campaign recorded no episodes")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.snap")
	cases := []struct {
		era, region, sched, method string
	}{
		{"2024", "na", "pairs", "traceroute"},
		{"1999", "mars", "pairs", "traceroute"},
		{"1999", "na", "bogus", "traceroute"},
		{"1999", "na", "pairs", "bogus"},
	}
	for _, c := range cases {
		if err := run(c.era, c.region, 8, 1, 1, 60, c.sched, c.method, 0, out, ""); err == nil {
			t.Errorf("bad flags %+v accepted", c)
		}
	}
}

func TestRunWithTraceFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ds.snap")
	tr := filepath.Join(dir, "traces.txt")
	if err := run("1999", "na", 6, 4, 0.5, 120, "pairs", "traceroute", 0, out, tr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := trace.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 50 {
		t.Fatalf("only %d trace records", len(recs))
	}
	for _, r := range recs[:10] {
		if len(r.Hops) < 2 || len(r.Samples) == 0 {
			t.Fatalf("thin record %+v", r)
		}
	}
}

// TestRunTraceWriteError: a trace file that cannot be written fails the
// run instead of leaving a truncated trace behind a zero exit status.
func TestRunTraceWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	out := filepath.Join(t.TempDir(), "ds.snap")
	if err := run("1999", "na", 6, 4, 0.5, 120, "pairs", "traceroute", 0, out, "/dev/full"); err == nil {
		t.Fatal("run tracing to a full device returned nil")
	}
}
