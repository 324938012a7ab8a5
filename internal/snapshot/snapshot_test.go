package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"pathsel/internal/dataset"
	"pathsel/internal/experiments"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// quickSuite builds (once) the quick-preset suite shared by the tests.
var quickSuite = sync.OnceValues(func() (*experiments.Suite, error) {
	return experiments.Build(experiments.Config{Seed: 1, Preset: experiments.Quick})
})

// quickSuite2 is a second quick suite whose snapshot differs from
// quickSuite's in every section, for the pooled-buffer tests.
var quickSuite2 = sync.OnceValues(func() (*experiments.Suite, error) {
	return experiments.Build(experiments.Config{Seed: 2, Preset: experiments.Quick})
})

func buildQuick(t *testing.T) *experiments.Suite {
	t.Helper()
	s, err := quickSuite()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

// TestEncodeCanonical: encoding the same suite twice yields identical
// bytes (the format has no nondeterministic map walks or timestamps).
func TestEncodeCanonical(t *testing.T) {
	s := buildQuick(t)
	a, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same suite differ")
	}
}

// TestRoundTripReEncode: encode → decode → reassemble → re-encode is
// byte-identical, so a snapshot survives arbitrarily many load/persist
// cycles without drifting.
func TestRoundTripReEncode(t *testing.T) {
	s := buildQuick(t)
	first, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(context.Background(), first, s.Config.Concurrency)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	second, err := Encode(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encode differs: first %d bytes, second %d bytes", len(first), len(second))
	}
}

// jsonBytes marshals v, failing the test on error.
func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// compareSuites asserts that every table and figure driver produces
// byte-identical output on the two suites.
func compareSuites(t *testing.T, fresh, restored *experiments.Suite) {
	t.Helper()
	if got, want := jsonBytes(t, experiments.Table1(restored)), jsonBytes(t, experiments.Table1(fresh)); !bytes.Equal(got, want) {
		t.Errorf("Table1 differs:\nfresh:    %s\nrestored: %s", want, got)
	}
	tables := map[string]func(*experiments.Suite) ([]experiments.VerdictRow, error){
		"Table2": experiments.Table2, "Table3": experiments.Table3,
	}
	for name, fn := range tables {
		w, err := fn(fresh)
		if err != nil {
			t.Fatalf("%s(fresh): %v", name, err)
		}
		g, err := fn(restored)
		if err != nil {
			t.Fatalf("%s(restored): %v", name, err)
		}
		if !bytes.Equal(jsonBytes(t, g), jsonBytes(t, w)) {
			t.Errorf("%s differs", name)
		}
	}
	figures := map[string]func(*experiments.Suite) ([]experiments.Series, error){
		"Figure1": experiments.Figure1, "Figure2": experiments.Figure2,
		"Figure3": experiments.Figure3, "Figure4": experiments.Figure4,
		"Figure5": experiments.Figure5, "Figure6": experiments.Figure6,
		"Figure9": experiments.Figure9, "Figure10": experiments.Figure10,
		"Figure11": experiments.Figure11, "Figure15": experiments.Figure15,
	}
	for name, fn := range figures {
		w, err := fn(fresh)
		if err != nil {
			t.Fatalf("%s(fresh): %v", name, err)
		}
		g, err := fn(restored)
		if err != nil {
			t.Fatalf("%s(restored): %v", name, err)
		}
		if !bytes.Equal(jsonBytes(t, g), jsonBytes(t, w)) {
			t.Errorf("%s differs", name)
		}
	}
}

// TestRestoredSuiteFigureIdentity: every figure and table response from
// a snapshot-restored quick suite is byte-identical to the freshly
// built one — the acceptance invariant the serve warm path relies on.
func TestRestoredSuiteFigureIdentity(t *testing.T) {
	fresh := buildQuick(t)
	data, err := Encode(fresh)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(context.Background(), data, fresh.Config.Concurrency)
	if err != nil {
		t.Fatal(err)
	}
	compareSuites(t, fresh, restored)
}

// TestRestoredSuiteFigureIdentityFull repeats the identity check at the
// full preset (the paper's real campaign sizes). Skipped under -short:
// it pays one ~10 s cold build.
func TestRestoredSuiteFigureIdentityFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-preset build takes ~10s")
	}
	fresh, err := experiments.Build(experiments.Config{Seed: 1, Preset: experiments.Full})
	if err != nil {
		t.Fatal(err)
	}
	first, err := Encode(fresh)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(context.Background(), first, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Encode(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("full-preset re-encode differs")
	}
	compareSuites(t, fresh, restored)
}

func TestWriteLoad(t *testing.T) {
	s := buildQuick(t)
	dir := t.TempDir()
	path, err := Write(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != FileName(s.Config) {
		t.Errorf("wrote %s, want file name %s", path, FileName(s.Config))
	}
	got, err := Load(context.Background(), dir, s.Config)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.Seed != s.Config.Seed || got.Config.Preset != s.Config.Preset {
		t.Errorf("loaded config %+v, want %+v", got.Config, s.Config)
	}
	if len(got.UW3.Paths) != len(s.UW3.Paths) {
		t.Errorf("restored UW3 has %d paths, want %d", len(got.UW3.Paths), len(s.UW3.Paths))
	}
	// A miss is os.IsNotExist, so callers can fall back to a build.
	if _, err := Load(context.Background(), dir, experiments.Config{Seed: 99, Preset: experiments.Quick}); !os.IsNotExist(err) {
		t.Errorf("missing snapshot gave %v, want IsNotExist", err)
	}
}

// TestWriteReadDataset: a dataset file carries every record type
// through, and write and read failures are errors.
func TestWriteReadDataset(t *testing.T) {
	dir := t.TempDir()
	k := dataset.PairKey{Src: 0, Dst: 1}
	d := dataset.New("persist", []topology.HostID{0, 1})
	d.RecordEcho(k, 42, []float64{10, 20}, []bool{false, true}, []topology.ASN{5, 6}, 2)
	d.RecordTransfer(k, dataset.TransferSample{At: 7, MeanRTTMs: 30, LossRate: 0.5, Packets: 9})
	d.AddEpisode(&dataset.Episode{At: 9, RTTMs: map[dataset.PairKey]float64{k: 15}})

	path := filepath.Join(dir, "d.snap")
	if err := WriteDataset(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "persist" || !slices.Equal(got.Hosts, d.Hosts) {
		t.Errorf("read name %q hosts %v", got.Name, got.Hosts)
	}
	p, want := got.Paths[k], d.Paths[k]
	if p == nil || p.Measurements != want.Measurements || !sameEchoes(p.Echo, want.Echo) ||
		!slices.Equal(p.Transfers, want.Transfers) || !slices.Equal(p.ASPath, want.ASPath) {
		t.Errorf("read path %+v, want %+v", p, want)
	}
	if len(got.Episodes) != 1 || got.Episodes[0].At != 9 || got.Episodes[0].RTTMs[k] != 15 {
		t.Errorf("read episodes %+v", got.Episodes)
	}

	if err := WriteDataset(filepath.Join(dir, "long.snap"), dataset.New("seventeen-bytes-x", nil)); err == nil {
		t.Error("a dataset name over 16 bytes was written")
	}
	if err := WriteDataset(filepath.Join(dir, "missing-dir", "d.snap"), d); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
	if _, err := ReadDataset(filepath.Join(dir, "nope.snap")); !os.IsNotExist(err) {
		t.Errorf("reading a missing file gave %v, want IsNotExist", err)
	}
}

// TestDecodeRejectsCorruption: magic, version and checksum failures are
// the documented sentinel errors, and arbitrary corruption never
// panics.
func TestDecodeRejectsCorruption(t *testing.T) {
	s := buildQuick(t)
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, _, err := Decode(bad); err == nil || !isErr(err, ErrMagic) {
		t.Errorf("bad magic gave %v, want ErrMagic", err)
	}

	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[8:], Version+7)
	if _, _, err := Decode(bad); err == nil || !isErr(err, ErrVersion) {
		t.Errorf("version skew gave %v, want ErrVersion", err)
	}

	bad = append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xff
	if _, _, err := Decode(bad); err == nil || !isErr(err, ErrChecksum) {
		t.Errorf("payload corruption gave %v, want ErrChecksum", err)
	}

	if _, _, err := Decode(data[:40]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := Decode(data[:len(data)-9]); err == nil {
		t.Error("truncated payload accepted")
	}
}

func isErr(err, target error) bool {
	for e := err; e != nil; {
		if e == target {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// TestReassembleMissingDataset: a snapshot that lost a section is
// rejected instead of producing a suite with nil datasets.
func TestReassembleMissingDataset(t *testing.T) {
	s := buildQuick(t)
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	_, primary, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	delete(primary, "N2")
	if _, err := experiments.Reassemble(context.Background(), s.Config, primary); err == nil {
		t.Fatal("reassemble with a missing dataset succeeded")
	}
}

// primaryOf decodes an independently owned copy of s's primary
// datasets, so a test can mutate them without touching the shared
// quick suite.
func primaryOf(t testing.TB, s *experiments.Suite) map[string]*dataset.Dataset {
	t.Helper()
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	_, primary, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return primary
}

// encodePrimary encodes primary datasets as a snapshot of a suite with
// configuration cfg.
func encodePrimary(t testing.TB, cfg experiments.Config, primary map[string]*dataset.Dataset) []byte {
	t.Helper()
	data, err := Encode(&experiments.Suite{
		Config: cfg,
		UW1:    primary["UW1"], UW3: primary["UW3"], UW4A: primary["UW4-A"], UW4B: primary["UW4-B"],
		D2: primary["D2"], N2: primary["N2"],
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restamp rewrites the header's payload length and checksum to match
// the payload that follows it.
func restamp(data []byte) {
	binary.LittleEndian.PutUint64(data[32:], uint64(len(data)-headerSize))
	binary.LittleEndian.PutUint64(data[40:], crc64.Checksum(data[headerSize:], crcTable))
}

// TestRestoreRejectsUnknownHosts: a snapshot whose checksum is valid
// but which names hosts outside the regenerated topology (written
// before a substrate change that missed its Version bump) is an error
// from Restore, not a nil dereference in Reassemble.
func TestRestoreRejectsUnknownHosts(t *testing.T) {
	const stranger = topology.HostID(99999)
	cases := map[string]func(primary map[string]*dataset.Dataset){
		"host list": func(primary map[string]*dataset.Dataset) { primary["D2"].Hosts[0] = stranger },
		"path endpoint": func(primary map[string]*dataset.Dataset) {
			uw3 := primary["UW3"]
			for k, p := range uw3.Paths {
				delete(uw3.Paths, k) // any path will do
				p.Key.Dst = stranger
				uw3.Paths[p.Key] = p
				break
			}
		},
		"episode entry": func(primary map[string]*dataset.Dataset) {
			ep := primary["UW4-A"].Episodes[0]
			ep.RTTMs[dataset.PairKey{Src: stranger, Dst: primary["UW4-A"].Hosts[0]}] = 1
		},
	}
	s := buildQuick(t)
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			primary := primaryOf(t, s)
			mutate(primary)
			data := encodePrimary(t, s.Config, primary)
			got, err := Restore(context.Background(), data, 1)
			if err == nil || got != nil {
				t.Fatalf("Restore = (%v, %v), want an error", got, err)
			}
			if errors.Is(err, ErrChecksum) {
				t.Fatalf("Restore error %v is a checksum failure; the checksum is valid", err)
			}
		})
	}
}

// TestChecksumPrecedence: when a corrupt payload also fails to parse,
// the checksum verdict wins, so callers see ErrChecksum rather than a
// parse error about bytes that were never trustworthy.
func TestChecksumPrecedence(t *testing.T) {
	data, err := Encode(buildQuick(t))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	// The first section's path count, an implausible value.
	section := headerSize + int(binary.LittleEndian.Uint64(bad[headerSize+16:]))
	binary.LittleEndian.PutUint32(bad[section+4:], math.MaxUint32)
	if _, _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt count gave %v, want ErrChecksum", err)
	}
	// With the checksum re-stamped the same bytes fail the parse, so
	// the case above really had two failures to choose from.
	restamp(bad)
	if _, _, err := Decode(bad); err == nil || errors.Is(err, ErrChecksum) {
		t.Fatalf("re-stamped corrupt count gave %v, want a parse error", err)
	}
}

// sameEchoes reports whether two echo stores hold the same records,
// comparing times as bit patterns.
func sameEchoes(a, b dataset.Echoes) bool {
	return slices.EqualFunc(a.At, b.At, func(x, y netsim.Time) bool {
		return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	}) && slices.Equal(a.Counts, b.Counts) && slices.EqualFunc(a.RTTMs, b.RTTMs, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}) && slices.Equal(a.Lost, b.Lost)
}

// TestSlabIsolation: restored paths share one slab per sample type,
// but each path's window is capacity-capped, so appending to one
// path's samples reallocates instead of overwriting its neighbour's.
func TestSlabIsolation(t *testing.T) {
	primary := primaryOf(t, buildQuick(t))
	for _, d := range primary {
		for _, p := range d.Paths {
			e := p.Echo
			if cap(e.At) != len(e.At) || cap(e.Counts) != len(e.Counts) || cap(e.RTTMs) != len(e.RTTMs) ||
				cap(e.Lost) != len(e.Lost) || cap(p.Transfers) != len(p.Transfers) || cap(p.ASPath) != len(p.ASPath) {
				t.Fatalf("%s %v: a sample slice has spare capacity", d.Name, p.Key)
			}
		}
	}
	uw3 := primary["UW3"]
	keys := uw3.PairKeys() // encoding order, which is slab order
	for i := 0; i+1 < len(keys); i++ {
		p, next := uw3.Paths[keys[i]], uw3.Paths[keys[i+1]]
		if len(p.Echo.RTTMs) == 0 || len(next.Echo.RTTMs) == 0 || len(p.Echo.Lost) == 0 || len(next.Echo.Lost) == 0 {
			continue
		}
		e := next.Echo
		want := dataset.Echoes{
			At: slices.Clone(e.At), Counts: slices.Clone(e.Counts), RTTMs: slices.Clone(e.RTTMs), Lost: slices.Clone(e.Lost),
		}
		p.Echo.At = append(p.Echo.At, -1)
		p.Echo.Counts = append(p.Echo.Counts, dataset.EchoCounts{RTT: 1, Loss: 1})
		p.Echo.RTTMs = append(p.Echo.RTTMs, -1)
		p.Echo.Lost = append(p.Echo.Lost, !next.Echo.Lost[0])
		if !sameEchoes(next.Echo, want) {
			t.Fatalf("appending to %v's echo records changed %v's", keys[i], keys[i+1])
		}
		return
	}
	t.Fatal("no two adjacent UW3 paths with RTT and loss samples")
}

// writeTwo persists the two quick suites' snapshots in a fresh
// directory and returns it with each file's bytes.
func writeTwo(t *testing.T) (dir string, suites []*experiments.Suite, files [][]byte) {
	t.Helper()
	s2, err := quickSuite2()
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	suites = []*experiments.Suite{buildQuick(t), s2}
	for _, s := range suites {
		path, err := Write(dir, s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, b)
	}
	return dir, suites, files
}

// TestLoadPooledBufferAliasing: Load reuses its read buffer, so a
// suite restored from it must hold no reference into it. Loading a
// second snapshot over the same buffer leaves the first suite intact.
func TestLoadPooledBufferAliasing(t *testing.T) {
	dir, suites, files := writeTwo(t)
	first, err := Load(context.Background(), dir, suites[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(context.Background(), dir, suites[1].Config); err != nil {
		t.Fatal(err)
	}
	again, err := Encode(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, files[0]) {
		t.Fatal("seed 1's suite changed after seed 2 was loaded through the pooled buffer")
	}
}

// TestConcurrentLoad runs interleaved loads of two snapshots from
// several goroutines (meaningful under -race): every suite re-encodes
// to exactly the file it came from.
func TestConcurrentLoad(t *testing.T) {
	dir, suites, files := writeTwo(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				which := (g + i) % 2
				s, err := Load(context.Background(), dir, suites[which].Config)
				if err != nil {
					t.Error(err)
					return
				}
				b, err := Encode(s)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(b, files[which]) {
					t.Errorf("goroutine %d load %d: seed %d re-encodes differently", g, i, suites[which].Config.Seed)
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDecode drives the decoder with arbitrary bytes: it must reject or
// accept but never panic or over-allocate.
func FuzzDecode(f *testing.F) {
	f.Add([]byte("PSELSNAP"))
	f.Add(make([]byte, 64))
	f.Add([]byte("PSELSNAP\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"))
	// A one-section dataset file, as pathsim writes, and a truncation.
	d := dataset.New("seed", []topology.HostID{0, 1})
	d.RecordEcho(dataset.PairKey{Src: 0, Dst: 1}, 1, []float64{10}, []bool{false}, []topology.ASN{1, 2}, 1)
	d.AddEpisode(&dataset.Episode{At: 2, RTTMs: map[dataset.PairKey]float64{{Src: 0, Dst: 1}: 10}})
	file, err := encode(0, 0, []string{d.Name}, []*dataset.Dataset{d})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	f.Add(file[:len(file)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, ds, err := Decode(data)
		if err == nil {
			// Accepted input must at least carry a coherent config.
			_ = cfg
			_ = ds
		}
	})
}

// smallSuite cuts s down to a fuzzing seed: three paths per dataset,
// four samples per series and two episodes, a snapshot of a few KB
// that still exercises every record type. Cutting both series at four
// samples splits invocations, so the seed's RTT and loss runs do not
// all line up.
func smallSuite(s *experiments.Suite) *experiments.Suite {
	cut := func(d *dataset.Dataset) *dataset.Dataset {
		out := dataset.New(d.Name, d.Hosts)
		keys := d.PairKeys()
		for _, k := range keys[:min(3, len(keys))] {
			p := *d.Paths[k]
			rtt := firstSamples(p.Echo.RTTSamples(), 4)
			loss := firstSamples(p.Echo.LossSamples(), 4)
			p.Echo = perSample(rtt, loss)
			p.Transfers = p.Transfers[:min(4, len(p.Transfers))]
			out.Paths[k] = &p
		}
		for _, ep := range d.Episodes[:min(2, len(d.Episodes))] {
			kept := &dataset.Episode{At: ep.At, RTTMs: map[dataset.PairKey]float64{}}
			for k, v := range ep.RTTMs {
				if out.Paths[k] != nil {
					kept.RTTMs[k] = v
				}
			}
			out.Episodes = append(out.Episodes, kept)
		}
		return out
	}
	return &experiments.Suite{
		Config: s.Config,
		UW1:    cut(s.UW1), UW3: cut(s.UW3), UW4A: cut(s.UW4A), UW4B: cut(s.UW4B),
		D2: cut(s.D2), N2: cut(s.N2),
	}
}

// FuzzRestore drives the section parser and Reassemble with payloads
// that pass the checksum: it fuzzes the payload of a small quick
// snapshot and re-stamps the header's length and CRC over each input,
// which FuzzDecode's raw bytes essentially never match. Restore must
// return a suite or an error, never panic.
func FuzzRestore(f *testing.F) {
	s, err := quickSuite()
	if err != nil {
		f.Fatal(err)
	}
	seed, err := Encode(smallSuite(s))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Restore(context.Background(), seed, 1); err != nil {
		f.Fatalf("the seed snapshot (%d bytes) does not restore: %v", len(seed), err)
	}
	header := seed[:headerSize:headerSize]
	f.Add(seed[headerSize:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := append(append([]byte(nil), header...), payload...)
		restamp(data)
		got, err := Restore(context.Background(), data, 1)
		if err != nil {
			return
		}
		again, err := Encode(got)
		if err != nil {
			t.Fatalf("restored suite does not re-encode: %v", err)
		}
		// The re-encoding is canonical: it restores, and encodes to
		// itself.
		re, err := Restore(context.Background(), again, 1)
		if err != nil {
			t.Fatalf("re-encoded suite does not restore: %v", err)
		}
		third, err := Encode(re)
		if err != nil {
			t.Fatalf("re-restored suite does not encode: %v", err)
		}
		if !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not stable: %d bytes, then %d", len(again), len(third))
		}
	})
}
