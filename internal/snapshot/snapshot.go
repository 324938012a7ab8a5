// Package snapshot persists built experiment suites as versioned,
// deterministic flat binary files, so a serving process can warm-start
// by decoding campaign data instead of re-running the campaigns. The
// codec stores the six primary datasets (the expensive, seconds-to-
// minutes part of a build) in fixed-width little-endian sections behind
// a checksummed header; the measurement substrate — topologies, IGP
// tables, BGP routes, the congestion model — is a pure function of the
// suite configuration and is regenerated in milliseconds on load via
// experiments.Reassemble. Encoding is canonical: the same suite always
// produces the same bytes (paths and episode entries are written in
// sorted pair order, floats as IEEE-754 bit patterns), so snapshots can
// be compared, cached and content-addressed.
//
// File layout (all integers little-endian):
//
//	[0..8)    magic "PSELSNAP"
//	[8..12)   format version (uint32)
//	[12..16)  preset (int32)
//	[16..24)  seed (int64)
//	[24..28)  section count (uint32)
//	[28..32)  reserved
//	[32..40)  payload length (uint64)
//	[40..48)  CRC-64/ECMA of the payload (uint64)
//	[48..64)  reserved
//	[64..)    payload: section table, then 8-byte-aligned sections
//
// The section table holds one 32-byte entry per dataset (16-byte name,
// offset and length relative to the payload start), so a reader can
// locate any dataset without scanning the file — the layout is
// mmap-friendly: every numeric slab is fixed-width and 8-byte aligned.
// Version skew, a bad magic and a checksum mismatch are distinguished
// sentinel errors so callers can fall back to a cold rebuild.
//
// Decoding runs the payload checksum on a second goroutine alongside a
// two-pass parse of each section: the first pass checks every count
// against the bytes that remain and allocates nothing, the second
// fills one slab per element type. The checksum verdict always wins
// (a mismatch discards the parse, failed or not), and Restore
// reassembles a suite only from verified data. Every value and string
// is copied out of the input, so a caller may reuse the buffer once
// Decode or Restore returns; Load recycles its read buffers that way.
package snapshot

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"sync"

	"pathsel/internal/dataset"
	"pathsel/internal/experiments"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// Version is the snapshot format version. It must be bumped whenever
// the byte layout changes or when the substrate generation code
// changes incompatibly (a snapshot only stores campaign data; the
// substrate is regenerated from the configuration, so a generation
// change would silently desynchronize old snapshots from fresh builds).
const Version = 1

// magic identifies a snapshot file.
var magic = [8]byte{'P', 'S', 'E', 'L', 'S', 'N', 'A', 'P'}

// headerSize is the fixed byte length of the file header.
const headerSize = 64

// crcTable is the CRC-64/ECMA table used for the payload checksum.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Sentinel errors callers use to distinguish "not a snapshot" and
// "stale snapshot" (both of which warrant a cold rebuild) from I/O
// failures.
var (
	ErrMagic    = errors.New("snapshot: not a snapshot file")
	ErrVersion  = errors.New("snapshot: format version mismatch")
	ErrChecksum = errors.New("snapshot: payload checksum mismatch")
)

// FileName returns the canonical snapshot file name for a suite
// configuration; every component that persists or looks up snapshots
// routes through it so the on-disk keyspace is consistent.
func FileName(cfg experiments.Config) string {
	return fmt.Sprintf("suite-%s-seed%d.snap", cfg.Preset, cfg.Seed)
}

// --- encoding ---

// enc is an append-only little-endian buffer.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

// pad8 aligns the buffer to an 8-byte boundary with zero bytes.
func (e *enc) pad8() {
	for len(e.b)%8 != 0 {
		e.b = append(e.b, 0)
	}
}

// encodeDataset appends one dataset section (without its table entry).
func encodeDataset(e *enc, d *dataset.Dataset) {
	keys := d.PairKeys()
	e.u32(uint32(len(d.Hosts)))
	e.u32(uint32(len(keys)))
	e.u32(uint32(len(d.Episodes)))
	e.u32(0) // reserved
	for _, h := range d.Hosts {
		e.i64(int64(h))
	}
	for _, k := range keys {
		p := d.Paths[k]
		e.i64(int64(k.Src))
		e.i64(int64(k.Dst))
		e.i64(int64(p.Measurements))
		e.u32(uint32(len(p.Echo.RTTMs)))
		e.u32(uint32(len(p.Echo.Lost)))
		e.u32(uint32(len(p.Transfers)))
		e.u32(uint32(len(p.ASPath)))
		// One file record per sample: each invocation's time is
		// repeated for each of its samples.
		for at, rtt := range p.Echo.RTTSamples() {
			e.f64(float64(at))
			e.f64(rtt)
		}
		for at, lost := range p.Echo.LossSamples() {
			e.f64(float64(at))
			if lost {
				e.u8(1)
			} else {
				e.u8(0)
			}
		}
		e.pad8()
		for _, s := range p.Transfers {
			e.f64(float64(s.At))
			e.f64(s.MeanRTTMs)
			e.f64(s.LossRate)
			e.i64(int64(s.Packets))
		}
		for _, asn := range p.ASPath {
			e.i64(int64(asn))
		}
	}
	var epKeys []dataset.PairKey
	for _, ep := range d.Episodes {
		e.f64(float64(ep.At))
		e.u32(uint32(len(ep.RTTMs)))
		e.u32(0) // reserved
		epKeys = dataset.SortedKeys(ep.RTTMs, epKeys)
		for _, k := range epKeys {
			e.i64(int64(k.Src))
			e.i64(int64(k.Dst))
			e.f64(ep.RTTMs[k])
		}
	}
}

// Encode serializes the suite's campaign data to the snapshot format.
// The output is canonical: encoding the same suite (or a decoded copy
// of it) always yields identical bytes.
func Encode(s *experiments.Suite) ([]byte, error) {
	names := experiments.PrimaryDatasetNames()
	sets := make([]*dataset.Dataset, len(names))
	for i, name := range names {
		d, ok := s.Dataset(name)
		if !ok || d == nil {
			return nil, fmt.Errorf("snapshot: suite has no dataset %q", name)
		}
		sets[i] = d
	}
	return encode(int32(s.Config.Preset), s.Config.Seed, names, sets)
}

// encode lays out a snapshot file: the header, then the section table
// naming sets[i] names[i], then the sections.
func encode(preset int32, seed int64, names []string, sets []*dataset.Dataset) ([]byte, error) {
	// Sections first, each encoded into the shared buffer at an aligned
	// offset, with table entries recorded as we go.
	type entry struct {
		name     string
		off, len uint64
	}
	table := make([]entry, 0, len(names))
	var body enc
	for i, name := range names {
		if len(name) > 16 {
			return nil, fmt.Errorf("snapshot: dataset name %q exceeds 16 bytes", name)
		}
		body.pad8()
		start := len(body.b)
		encodeDataset(&body, sets[i])
		table = append(table, entry{name: name, off: uint64(start), len: uint64(len(body.b) - start)})
	}

	// Payload = section table + section bodies; body offsets are
	// relative to the payload start, so shift them by the table size.
	tableSize := uint64(32 * len(table))
	var payload enc
	payload.b = make([]byte, 0, int(tableSize)+len(body.b))
	for _, ent := range table {
		var name [16]byte
		copy(name[:], ent.name)
		payload.b = append(payload.b, name[:]...)
		payload.u64(ent.off + tableSize)
		payload.u64(ent.len)
	}
	payload.b = append(payload.b, body.b...)

	var out enc
	out.b = make([]byte, 0, headerSize+len(payload.b))
	out.b = append(out.b, magic[:]...)
	out.u32(Version)
	out.u32(uint32(preset))
	out.i64(seed)
	out.u32(uint32(len(table)))
	out.u32(0)
	out.u64(uint64(len(payload.b)))
	out.u64(crc64.Checksum(payload.b, crcTable))
	out.u64(0)
	out.u64(0)
	out.b = append(out.b, payload.b...)
	return out.b, nil
}

// --- decoding ---

// dec is a bounds-checked little-endian reader for bytes not yet
// validated: the section table and each section's first pass. A read
// past the end records an error instead of panicking.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) || n < 0 {
		d.fail("truncated payload at offset %d (+%d of %d)", d.off, n, len(d.b))
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// pad8 skips to the next 8-byte boundary of the section.
func (d *dec) pad8() { d.take(pad8(d.off) - d.off) }

// pad8 rounds the offset off up to the next multiple of 8.
func pad8(off int) int { return (off + 7) &^ 7 }

// sliceCount guards a count field against hostile or corrupt lengths:
// every element occupies at least minBytes, so a count implying more
// bytes than remain is rejected before allocation.
func (d *dec) sliceCount(n uint32, minBytes int) int {
	if d.err != nil {
		return 0
	}
	if int(n) > (len(d.b)-d.off)/minBytes {
		d.fail("implausible element count %d at offset %d", n, d.off)
		return 0
	}
	return int(n)
}

// cur is the second pass's reader: it tracks no error, because it only
// reads ranges the first pass has already validated.
type cur struct {
	b   []byte
	off int
}

// take returns the next n bytes.
func (c *cur) take(n int) []byte {
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

func (c *cur) u32() uint32 {
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cur) u64() uint64 {
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cur) i64() int64   { return int64(c.u64()) }
func (c *cur) f64() float64 { return math.Float64frombits(c.u64()) }
func (c *cur) pad8()        { c.off = pad8(c.off) }

// f64 reads a little-endian IEEE-754 bit pattern from the front of p.
func f64(p []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(p)) }

// groupEchoes decodes one path's encoded RTT records (16 bytes: time,
// RTT) into rtt and its loss records (9 bytes: time, outcome) into
// lost, grouping them into the invocation records of dataset.Echoes,
// which it writes to at and counts. It returns how many records it
// wrote, or ok=false if they do not fit. A record takes the next run
// of loss records that share a time, with the run of RTT records at
// that time if the RTT records continue with it; a loss run the RTT
// records do not continue with becomes a record with no RTT samples,
// and RTT records left once the loss records are used up become
// records with no loss samples. Times compare as bit patterns, so NaN
// and -0 group exactly, and a run stops at dataset.MaxEchoRun samples.
// Any pair of sequences therefore groups, and expanding the records
// gives back both sequences unchanged.
func groupEchoes(rttRecs, lossRecs []byte, rtt []float64, lost []bool,
	at []netsim.Time, counts []dataset.EchoCounts) (n int, ok bool) {
	le := binary.LittleEndian
	i, j := 0, 0 // RTT and loss samples grouped so far
	for ; len(rttRecs) >= 16 || len(lossRecs) >= 9; n++ {
		if n == len(at) {
			return n, false
		}
		var t uint64
		if len(lossRecs) >= 9 {
			t = le.Uint64(lossRecs)
		} else {
			t = le.Uint64(rttRecs)
		}
		var c dataset.EchoCounts
		for ; len(lossRecs) >= 9 && c.Loss < dataset.MaxEchoRun && le.Uint64(lossRecs) == t; j++ {
			lost[j] = lossRecs[8] != 0
			lossRecs = lossRecs[9:]
			c.Loss++
		}
		for ; len(rttRecs) >= 16 && c.RTT < dataset.MaxEchoRun && le.Uint64(rttRecs) == t; i++ {
			rtt[i] = f64(rttRecs[8:])
			rttRecs = rttRecs[16:]
			c.RTT++
		}
		at[n], counts[n] = netsim.Time(math.Float64frombits(t)), c
	}
	return n, true
}

// decodeDataset parses one dataset section in two passes. The first
// walks every record header, checks each count against the bytes that
// remain and sums the counts, allocating nothing. The second allocates
// one slab per element type and fills it from the ranges the first
// pass validated; each path gets a capacity-capped window of the slabs,
// so an append to one path's samples can never overwrite the next
// path's.
//
// The number of invocation records is known only once the echo samples
// are grouped, so the first pass sizes their slabs from each path's
// measurement count: a campaign records one invocation per measurement
// that is not a transfer, and decoding groups those back into one
// record each. A path whose records outgrow what is left of the slabs
// (a file written some other way) gets slabs of its own.
func decodeDataset(d *dec, name string) *dataset.Dataset {
	nHosts := d.sliceCount(d.u32(), 8)
	nPaths := d.sliceCount(d.u32(), 40)
	nEpisodes := d.sliceCount(d.u32(), 16)
	d.u32() // reserved
	start := d.off
	d.take(8 * nHosts)
	var nEcho, nRTT, nLoss, nTransfers, nASPath int
	for i := 0; i < nPaths && d.err == nil; i++ {
		d.take(16) // src, dst
		m := int64(d.u64())
		r := d.sliceCount(d.u32(), 16)
		l := d.sliceCount(d.u32(), 9)
		t := d.sliceCount(d.u32(), 32)
		a := d.sliceCount(d.u32(), 8)
		d.take(16*r + 9*l)
		d.pad8()
		d.take(32*t + 8*a)
		nEcho += int(min(max(m-int64(t), 0), int64(r+l)))
		nRTT, nLoss, nTransfers, nASPath = nRTT+r, nLoss+l, nTransfers+t, nASPath+a
	}
	for i := 0; i < nEpisodes && d.err == nil; i++ {
		d.take(8) // time
		n := d.sliceCount(d.u32(), 24)
		d.u32() // reserved
		d.take(24 * n)
	}
	if d.err != nil {
		return nil
	}

	c := cur{b: d.b, off: start}
	hosts := make([]topology.HostID, nHosts)
	for i := range hosts {
		hosts[i] = topology.HostID(c.i64())
	}
	times := make([]netsim.Time, nEcho)
	counts := make([]dataset.EchoCounts, nEcho)
	rtt := make([]float64, nRTT)
	lost := make([]bool, nLoss)
	transfers := make([]dataset.TransferSample, nTransfers)
	asns := make([]topology.ASN, nASPath)
	pds := make([]dataset.PathData, nPaths)
	paths := make(map[dataset.PairKey]*dataset.PathData, nPaths)
	for i := range pds {
		p := &pds[i]
		p.Key = dataset.PairKey{Src: topology.HostID(c.i64()), Dst: topology.HostID(c.i64())}
		p.Measurements = int(c.i64())
		r, l, t, a := int(c.u32()), int(c.u32()), int(c.u32()), int(c.u32())
		rttRecs, lossRecs := c.take(16*r), c.take(9*l)
		if r > 0 {
			p.Echo.RTTMs, rtt = rtt[:r:r], rtt[r:]
		}
		if l > 0 {
			p.Echo.Lost, lost = lost[:l:l], lost[l:]
		}
		at, cn := times, counts
		n, ok := groupEchoes(rttRecs, lossRecs, p.Echo.RTTMs, p.Echo.Lost, at, cn)
		if ok {
			times, counts = times[n:], counts[n:]
		} else {
			// A path has at most one record per sample.
			at, cn = make([]netsim.Time, r+l), make([]dataset.EchoCounts, r+l)
			n, _ = groupEchoes(rttRecs, lossRecs, p.Echo.RTTMs, p.Echo.Lost, at, cn)
		}
		if n > 0 {
			p.Echo.At, p.Echo.Counts = at[:n:n], cn[:n:n]
		}
		c.pad8()
		if t > 0 {
			p.Transfers, transfers = transfers[:t:t], transfers[t:]
			for j := range p.Transfers {
				p.Transfers[j] = dataset.TransferSample{
					At: netsim.Time(c.f64()), MeanRTTMs: c.f64(), LossRate: c.f64(), Packets: int(c.i64()),
				}
			}
		}
		if a > 0 {
			p.ASPath, asns = asns[:a:a], asns[a:]
			for j := range p.ASPath {
				p.ASPath[j] = topology.ASN(c.i64())
			}
		}
		paths[p.Key] = p
	}
	var episodes []*dataset.Episode
	if nEpisodes > 0 {
		eps := make([]dataset.Episode, nEpisodes)
		episodes = make([]*dataset.Episode, nEpisodes)
		for i := range eps {
			ep := &eps[i]
			ep.At = netsim.Time(c.f64())
			n := int(c.u32())
			c.u32() // reserved
			ep.RTTMs = make(map[dataset.PairKey]float64, n)
			for j := 0; j < n; j++ {
				k := dataset.PairKey{Src: topology.HostID(c.i64()), Dst: topology.HostID(c.i64())}
				ep.RTTMs[k] = c.f64()
			}
			episodes[i] = ep
		}
	}
	// Hosts were written from an already-sorted slice, so constructing
	// the struct directly preserves the exact order and avoids the
	// re-sort in dataset.New.
	return &dataset.Dataset{Name: name, Hosts: hosts, Paths: paths, Episodes: episodes}
}

// Decode parses a snapshot produced by Encode, returning the suite
// configuration (seed and preset; concurrency is a runtime knob, not
// part of suite identity) and the primary datasets keyed by name.
//
// The payload checksum is computed on a second goroutine while the
// sections parse, and Decode joins it before returning: a mismatch
// discards the parse and reports ErrChecksum, even when the parse
// itself failed, so no caller ever sees datasets from unverified bytes.
func Decode(data []byte) (experiments.Config, map[string]*dataset.Dataset, error) {
	var cfg experiments.Config
	if len(data) < headerSize {
		return cfg, nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrMagic, len(data))
	}
	if [8]byte(data[:8]) != magic {
		return cfg, nil, ErrMagic
	}
	le := binary.LittleEndian
	version := le.Uint32(data[8:])
	preset := int32(le.Uint32(data[12:]))
	seed := int64(le.Uint64(data[16:]))
	sections := le.Uint32(data[24:])
	payloadLen := le.Uint64(data[32:])
	sum := le.Uint64(data[40:])
	if version != Version {
		return cfg, nil, fmt.Errorf("%w: file has version %d, this binary reads %d", ErrVersion, version, Version)
	}
	if uint64(len(data)-headerSize) != payloadLen {
		return cfg, nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrChecksum, len(data)-headerSize, payloadLen)
	}
	payload := data[headerSize:]
	sumc := make(chan uint64, 1)
	go func() { sumc <- crc64.Checksum(payload, crcTable) }()
	out, err := decodePayload(payload, sections)
	if got := <-sumc; got != sum {
		return cfg, nil, fmt.Errorf("%w: computed %016x, header says %016x", ErrChecksum, got, sum)
	}
	if err != nil {
		return cfg, nil, err
	}
	cfg.Seed = seed
	cfg.Preset = experiments.Preset(preset)
	return cfg, out, nil
}

// decodePayload parses the section table and every section it lists.
func decodePayload(payload []byte, sections uint32) (map[string]*dataset.Dataset, error) {
	if int(sections) > len(payload)/32 {
		return nil, fmt.Errorf("snapshot: implausible section count %d", sections)
	}
	out := make(map[string]*dataset.Dataset, sections)
	t := &dec{b: payload}
	for i := 0; i < int(sections); i++ {
		nameBytes := t.take(16)
		off := t.u64()
		length := t.u64()
		if t.err != nil {
			return nil, t.err
		}
		name := string(trimZero(nameBytes))
		if off > uint64(len(payload)) || off+length > uint64(len(payload)) || off+length < off {
			return nil, fmt.Errorf("snapshot: section %q out of bounds (off %d len %d of %d)", name, off, length, len(payload))
		}
		sd := &dec{b: payload[off : off+length]}
		ds := decodeDataset(sd, name)
		if sd.err != nil {
			return nil, fmt.Errorf("section %q: %w", name, sd.err)
		}
		out[name] = ds
	}
	return out, nil
}

// trimZero strips the zero padding of a fixed-width name field.
func trimZero(b []byte) []byte {
	for i, c := range b {
		if c == 0 {
			return b[:i]
		}
	}
	return b
}

// Restore decodes a snapshot and reassembles the full suite: datasets
// from the file, substrate regenerated from the embedded configuration.
// concurrency is stamped into the restored suite's config (it is a
// runtime knob, deliberately not part of the snapshot identity).
// Reassembly starts only after Decode has verified the checksum, so no
// suite is ever assembled from a corrupt payload.
func Restore(ctx context.Context, data []byte, concurrency int) (*experiments.Suite, error) {
	cfg, primary, err := Decode(data)
	if err != nil {
		return nil, err
	}
	cfg.Concurrency = concurrency
	return experiments.Reassemble(ctx, cfg, primary)
}

// Write encodes the suite and persists it atomically (temp file, then
// rename) under dir using the canonical FileName.
func Write(dir string, s *experiments.Suite) (string, error) {
	data, err := Encode(s)
	if err != nil {
		return "", err
	}
	path := dir + string(os.PathSeparator) + FileName(s.Config)
	if err := writeAtomic(path, data); err != nil {
		return "", err
	}
	return path, nil
}

// WriteDataset persists one campaign dataset at path, atomically, as a
// snapshot file with a single section named after the dataset (so the
// name must fit the section table's 16 bytes) and a zero preset and
// seed: a dataset file records measurements, not a suite.
func WriteDataset(path string, d *dataset.Dataset) error {
	data, err := encode(0, 0, []string{d.Name}, []*dataset.Dataset{d})
	if err != nil {
		return err
	}
	return writeAtomic(path, data)
}

// ReadDataset reads a dataset file written by WriteDataset. A file
// that is not a snapshot, fails its checksum or holds any number of
// sections other than one is an error.
func ReadDataset(path string) (*dataset.Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, sets, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if n := binary.LittleEndian.Uint32(data[24:]); n != 1 {
		return nil, fmt.Errorf("snapshot: %s holds %d datasets, want 1", path, n)
	}
	return sets[string(trimZero(data[headerSize:headerSize+16]))], nil
}

// writeAtomic writes data to a temp file beside path, then renames it
// into place, so a reader never sees a partial file.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("snapshot: write %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: rename %s: %w", path, err)
	}
	return nil
}

// readBufs recycles Load's file buffers. A warm start reads a whole
// snapshot (megabytes at the quick preset) only to copy every value
// out of it, so the buffer is dead once Restore returns and the next
// load can reuse it instead of allocating a fresh one.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// Load reads the snapshot for cfg from dir and restores the suite.
// os.IsNotExist(err) distinguishes a cache miss from a corrupt file.
func Load(ctx context.Context, dir string, cfg experiments.Config) (*experiments.Suite, error) {
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	data, err := readFile(dir+string(os.PathSeparator)+FileName(cfg), buf)
	if err != nil {
		return nil, err
	}
	s, err := Restore(ctx, data, cfg.Concurrency)
	if err != nil {
		return nil, err
	}
	if s.Config.Seed != cfg.Seed || s.Config.Preset != cfg.Preset {
		return nil, fmt.Errorf("snapshot: file is for seed %d preset %s, want seed %d preset %s",
			s.Config.Seed, s.Config.Preset, cfg.Seed, cfg.Preset)
	}
	return s, nil
}

// readFile reads the file at path into *buf, growing it if it is too
// small, and returns the filled prefix.
func readFile(path string, buf *[]byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n := int(fi.Size())
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	data := (*buf)[:n]
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("snapshot: read %s: %w", path, err)
	}
	return data, nil
}
