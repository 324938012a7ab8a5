// Package dataset stores measurement campaigns in the form the paper's
// analysis consumes: per ordered host pair, timestamped round-trip
// samples, loss observations, TCP transfer measurements, and the forward
// AS path; plus the episode structure of simultaneous (UW4-A-style)
// campaigns. It provides the aggregations (long-term mean summaries,
// time-of-day bucketed summaries, propagation-delay estimates) and the
// filtering rules (minimum sample counts, ICMP rate-limiter handling,
// the D2 first-sample heuristic) described in Section 4.
package dataset

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"sync"

	"pathsel/internal/netsim"
	"pathsel/internal/stats"
	"pathsel/internal/topology"
)

// MinMeasurementsPerPath is the paper's cutoff: "we removed paths for
// which there were fewer than 30 measurements so as to increase our
// confidence in the results".
const MinMeasurementsPerPath = 30

// PairKey identifies an ordered host pair (a directed path).
type PairKey struct {
	Src, Dst topology.HostID
}

// String implements fmt.Stringer.
func (k PairKey) String() string { return fmt.Sprintf("%d->%d", k.Src, k.Dst) }

// Reverse returns the key of the opposite direction.
func (k PairKey) Reverse() PairKey { return PairKey{Src: k.Dst, Dst: k.Src} }

// Compare orders pair keys by source, then destination: the canonical
// pair order of every sorted pair listing.
func (k PairKey) Compare(o PairKey) int {
	return cmp.Or(cmp.Compare(k.Src, o.Src), cmp.Compare(k.Dst, o.Dst))
}

// SortedKeys returns m's keys in canonical pair order, reusing buf's
// storage when it is large enough (pass nil for a fresh slice).
func SortedKeys[V any](m map[PairKey]V, buf []PairKey) []PairKey {
	keys := slices.Grow(buf[:0], len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, PairKey.Compare)
	return keys
}

// MaxEchoRun is the most samples of either kind one invocation record
// holds: its counts are bytes. An invocation with more samples takes
// several consecutive records with the same time.
const MaxEchoRun = math.MaxUint8

// EchoCounts is one invocation record's sample counts: how many of its
// attempts returned a round trip, and how many loss outcomes it keeps.
type EchoCounts struct{ RTT, Loss uint8 }

// Echoes stores a path's echo samples one record per probe invocation.
// A traceroute takes its samples at one time (the paper's "three
// consecutive samples of the round trip time"), so the time is stored
// once per record, not once per sample. At and Counts run in parallel,
// one entry per record; RTTMs and Lost hold each record's samples back
// to back, in recorded order. Analysis code reads the samples through
// RTTSamples and LossSamples (or the plain value slices); the layout is
// for the recorder and the snapshot codec.
type Echoes struct {
	// At is each record's invocation time.
	At []netsim.Time
	// Counts is each record's number of RTT and loss samples.
	Counts []EchoCounts
	// RTTMs holds the successful round trips.
	RTTMs []float64
	// Lost holds the kept loss outcomes (true for a lost attempt).
	Lost []bool
}

// RTTSamples yields every successful round trip with its invocation
// time, in recorded order.
func (e *Echoes) RTTSamples() iter.Seq2[netsim.Time, float64] {
	return func(yield func(netsim.Time, float64) bool) {
		off := 0
		for i, at := range e.At {
			end := off + int(e.Counts[i].RTT)
			for _, v := range e.RTTMs[off:end] {
				if !yield(at, v) {
					return
				}
			}
			off = end
		}
	}
}

// LossSamples yields every kept loss outcome with its invocation time,
// in recorded order.
func (e *Echoes) LossSamples() iter.Seq2[netsim.Time, bool] {
	return func(yield func(netsim.Time, bool) bool) {
		off := 0
		for i, at := range e.At {
			end := off + int(e.Counts[i].Loss)
			for _, lost := range e.Lost[off:end] {
				if !yield(at, lost) {
					return
				}
			}
			off = end
		}
	}
}

// record appends one invocation: the RTT of every attempt that was not
// lost, and the outcomes of the first keep attempts. It splits an
// invocation of more than MaxEchoRun attempts into several records and
// stores none for an invocation that kept no sample.
func (e *Echoes) record(at netsim.Time, rtts []float64, lost []bool, keep int) {
	for base := 0; base < len(lost); base += MaxEchoRun {
		var c EchoCounts
		for i := base; i < min(base+MaxEchoRun, len(lost)); i++ {
			if !lost[i] {
				e.RTTMs = append(e.RTTMs, rtts[i])
				c.RTT++
			}
			if i < keep {
				e.Lost = append(e.Lost, lost[i])
				c.Loss++
			}
		}
		if c != (EchoCounts{}) {
			e.At = append(e.At, at)
			e.Counts = append(e.Counts, c)
		}
	}
}

// Clip returns e with every slice's capacity cut to its length, so an
// append to the copy reallocates instead of writing into e's spare
// capacity.
func (e *Echoes) Clip() Echoes {
	return Echoes{At: slices.Clip(e.At), Counts: slices.Clip(e.Counts), RTTMs: slices.Clip(e.RTTMs), Lost: slices.Clip(e.Lost)}
}

// TransferSample is one npd-style TCP transfer measurement.
type TransferSample struct {
	At        netsim.Time
	MeanRTTMs float64
	LossRate  float64
	Packets   int
}

// PathData accumulates every measurement of one directed path.
type PathData struct {
	Key PairKey
	// Measurements counts probe invocations that produced data.
	Measurements int
	// Echo holds the traceroute echo samples.
	Echo      Echoes
	Transfers []TransferSample
	// ASPath is the forward AS-level path from the first successful
	// traceroute (the paper finds paths are dominated by one route).
	ASPath []topology.ASN
}

// Episode is one all-pairs simultaneous measurement round (UW4-A).
type Episode struct {
	At netsim.Time
	// RTTMs maps each pair measured in this episode to the mean of its
	// successful samples; pairs whose samples were all lost are absent.
	RTTMs map[PairKey]float64
}

// Dataset is a complete measurement campaign.
type Dataset struct {
	Name string
	// Hosts are the measurement endpoints, ascending by ID.
	Hosts []topology.HostID
	// Paths holds per-pair data.
	Paths map[PairKey]*PathData
	// Episodes is non-empty only for simultaneous campaigns.
	Episodes []*Episode

	// pairKeysMu guards pairKeys, the memoized sorted key slice served
	// by PairKeys. The analysis engine calls PairKeys once per graph
	// build and once per alternate sweep — and the greedy host-removal
	// experiment runs thousands of sweeps — so re-sorting on every call
	// dominates; the cache is invalidated whenever the pair set changes.
	pairKeysMu sync.Mutex
	pairKeys   []PairKey

	// rev counts mutations made through Dataset methods, letting
	// derived caches (the analysis engine's per-metric graphs) detect
	// staleness cheaply. Direct writes to Paths bypass it, so consumers
	// should compare len(Paths) as well — see Revision.
	rev int64
}

// Revision identifies the dataset's mutation state: it changes whenever
// a Dataset method records or removes data. Callers caching derived
// state should key it on (Revision, len(Paths)) — the second component
// catches code that inserts into Paths directly.
func (d *Dataset) Revision() int64 { return d.rev }

// New creates an empty dataset over a host set.
func New(name string, hosts []topology.HostID) *Dataset {
	hs := make([]topology.HostID, len(hosts))
	copy(hs, hosts)
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return &Dataset{Name: name, Hosts: hs, Paths: map[PairKey]*PathData{}}
}

// path returns (creating if needed) the data for a pair. A new pair's
// sample slices get the given capacities, so a caller that knows how
// much it will record never grows them.
func (d *Dataset) path(k PairKey, echoCap, rttCap, lossCap, transferCap int) *PathData {
	p, ok := d.Paths[k]
	if !ok {
		p = &PathData{Key: k}
		if echoCap > 0 {
			p.Echo.At = make([]netsim.Time, 0, echoCap)
			p.Echo.Counts = make([]EchoCounts, 0, echoCap)
		}
		if rttCap > 0 {
			p.Echo.RTTMs = make([]float64, 0, rttCap)
		}
		if lossCap > 0 {
			p.Echo.Lost = make([]bool, 0, lossCap)
		}
		if transferCap > 0 {
			p.Transfers = make([]TransferSample, 0, transferCap)
		}
		d.Paths[k] = p
		d.invalidatePairKeys()
	}
	return p
}

// invalidatePairKeys drops the memoized PairKeys slice after a mutation
// of the pair set.
func (d *Dataset) invalidatePairKeys() {
	d.pairKeysMu.Lock()
	d.pairKeys = nil
	d.pairKeysMu.Unlock()
}

// RecordEcho records the outcome of one probe invocation: the echo
// samples (RTT or loss each) and the revealed AS path. keepSamples
// limits how many of the samples are recorded as loss observations
// (the D2 heuristic records only the first); pass len(samples) or more
// to keep all. Returns false if the invocation carried no data.
func (d *Dataset) RecordEcho(k PairKey, at netsim.Time, rtts []float64, lost []bool, asPath []topology.ASN, keepSamples int) bool {
	return d.RecordEchoSized(k, at, rtts, lost, asPath, keepSamples, 0)
}

// RecordEchoSized is RecordEcho for a caller that knows how many
// invocations of k it will record in all: when k is first recorded,
// its echo slices are allocated for expect invocations of this one's
// shape, so they never grow. expect 0 means unknown.
func (d *Dataset) RecordEchoSized(k PairKey, at netsim.Time, rtts []float64, lost []bool, asPath []topology.ASN,
	keepSamples, expect int) bool {
	if len(lost) == 0 {
		return false
	}
	if keepSamples > len(lost) {
		keepSamples = len(lost)
	}
	d.rev++
	records := (len(lost) + MaxEchoRun - 1) / MaxEchoRun
	p := d.path(k, expect*records, expect*len(lost), expect*keepSamples, 0)
	p.Measurements++
	p.Echo.record(at, rtts, lost, keepSamples)
	if p.ASPath == nil && len(asPath) > 0 {
		p.ASPath = append([]topology.ASN(nil), asPath...)
	}
	return true
}

// RecordTransfer records one TCP transfer measurement.
func (d *Dataset) RecordTransfer(k PairKey, s TransferSample) {
	d.RecordTransferSized(k, s, 0)
}

// RecordTransferSized is RecordTransfer for a caller that expects to
// record expect transfers of k in all (0 means unknown): k's first
// transfer allocates room for all of them.
func (d *Dataset) RecordTransferSized(k PairKey, s TransferSample, expect int) {
	d.rev++
	p := d.path(k, 0, 0, 0, expect)
	p.Measurements++
	p.Transfers = append(p.Transfers, s)
}

// AddEpisode appends a simultaneous measurement round.
func (d *Dataset) AddEpisode(e *Episode) { d.rev++; d.Episodes = append(d.Episodes, e) }

// RemoveSparsePaths drops paths with fewer than min measurements,
// returning how many were dropped.
func (d *Dataset) RemoveSparsePaths(min int) int {
	dropped := 0
	for k, p := range d.Paths {
		if p.Measurements < min {
			delete(d.Paths, k)
			dropped++
		}
	}
	if dropped > 0 {
		d.rev++
		d.invalidatePairKeys()
	}
	return dropped
}

// RemoveHosts drops the given hosts and every path touching them (the
// UW3/UW4 treatment of ICMP rate limiters).
func (d *Dataset) RemoveHosts(hosts map[topology.HostID]bool) {
	var keep []topology.HostID
	for _, h := range d.Hosts {
		if !hosts[h] {
			keep = append(keep, h)
		}
	}
	d.Hosts = keep
	for k := range d.Paths {
		if hosts[k.Src] || hosts[k.Dst] {
			delete(d.Paths, k)
		}
	}
	for _, e := range d.Episodes {
		for k := range e.RTTMs {
			if hosts[k.Src] || hosts[k.Dst] {
				delete(e.RTTMs, k)
			}
		}
	}
	d.rev++
	d.invalidatePairKeys()
}

// MeanRTT returns the long-term mean round-trip summary for a path, or
// ok=false if the path has no successful samples.
func (d *Dataset) MeanRTT(k PairKey) (stats.Summary, bool) {
	p := d.Paths[k]
	if p == nil || len(p.Echo.RTTMs) == 0 {
		return stats.Summary{}, false
	}
	var a stats.Accum
	for _, v := range p.Echo.RTTMs {
		a.Add(v)
	}
	return a.Summary(), true
}

// LossRate returns the loss-rate summary for a path: each echo attempt
// is a Bernoulli observation, so the mean is the loss rate and the
// binary-sample variance drives the (wide) confidence intervals the
// paper notes in Figure 8.
func (d *Dataset) LossRate(k PairKey) (stats.Summary, bool) {
	p := d.Paths[k]
	if p == nil || len(p.Echo.Lost) == 0 {
		return stats.Summary{}, false
	}
	var a stats.Accum
	addLoss(&a, p.Echo.Lost)
	return a.Summary(), true
}

// addLoss adds each outcome to a as a Bernoulli observation.
func addLoss(a *stats.Accum, lost []bool) {
	for _, l := range lost {
		if l {
			a.Add(1)
		} else {
			a.Add(0)
		}
	}
}

// PropagationDelay estimates the fixed (propagation) component of a
// path's RTT as the q-quantile of its samples; the paper uses the tenth
// percentile "to protect against noise".
func (d *Dataset) PropagationDelay(k PairKey, q float64) (float64, bool) {
	p := d.Paths[k]
	if p == nil || len(p.Echo.RTTMs) == 0 {
		return 0, false
	}
	v, err := stats.Quantile(p.Echo.RTTMs, q)
	if err != nil {
		return 0, false
	}
	return v, true
}

// RTTDist returns the empirical RTT distribution of a path (for the
// median-by-convolution analysis).
func (d *Dataset) RTTDist(k PairKey) (stats.Dist, bool) {
	p := d.Paths[k]
	if p == nil || len(p.Echo.RTTMs) == 0 {
		return stats.Dist{}, false
	}
	return stats.NewDist(p.Echo.RTTMs), true
}

// MeanRTTBucket returns the mean RTT summary restricted to samples in a
// time-of-day bucket. A record's samples share its time, so each
// record is classified once.
func (d *Dataset) MeanRTTBucket(k PairKey, b netsim.Bucket) (stats.Summary, bool) {
	p := d.Paths[k]
	if p == nil {
		return stats.Summary{}, false
	}
	var a stats.Accum
	off := 0
	for i, at := range p.Echo.At {
		end := off + int(p.Echo.Counts[i].RTT)
		if end > off && netsim.BucketOf(at) == b {
			for _, v := range p.Echo.RTTMs[off:end] {
				a.Add(v)
			}
		}
		off = end
	}
	if a.N() == 0 {
		return stats.Summary{}, false
	}
	return a.Summary(), true
}

// LossRateBucket returns the loss-rate summary restricted to a bucket.
func (d *Dataset) LossRateBucket(k PairKey, b netsim.Bucket) (stats.Summary, bool) {
	p := d.Paths[k]
	if p == nil {
		return stats.Summary{}, false
	}
	var a stats.Accum
	off := 0
	for i, at := range p.Echo.At {
		end := off + int(p.Echo.Counts[i].Loss)
		if end > off && netsim.BucketOf(at) == b {
			addLoss(&a, p.Echo.Lost[off:end])
		}
		off = end
	}
	if a.N() == 0 {
		return stats.Summary{}, false
	}
	return a.Summary(), true
}

// TransferMeans returns the mean RTT and mean loss rate over a path's
// TCP transfer measurements.
func (d *Dataset) TransferMeans(k PairKey) (rtt, loss stats.Summary, ok bool) {
	p := d.Paths[k]
	if p == nil || len(p.Transfers) == 0 {
		return stats.Summary{}, stats.Summary{}, false
	}
	var ar, al stats.Accum
	for _, s := range p.Transfers {
		ar.Add(s.MeanRTTMs)
		al.Add(s.LossRate)
	}
	return ar.Summary(), al.Summary(), true
}

// Characteristics is a row of the paper's Table 1.
type Characteristics struct {
	Name         string
	Hosts        int
	Measurements int
	// PercentCovered is distinct measured paths over hosts*(hosts-1).
	PercentCovered float64
}

// Characteristics summarizes the dataset for Table 1.
func (d *Dataset) Characteristics() Characteristics {
	c := Characteristics{Name: d.Name, Hosts: len(d.Hosts)}
	for _, p := range d.Paths {
		c.Measurements += p.Measurements
	}
	potential := len(d.Hosts) * (len(d.Hosts) - 1)
	if potential > 0 {
		c.PercentCovered = 100 * float64(len(d.Paths)) / float64(potential)
	}
	return c
}

// Subset returns a new dataset restricted to the given hosts: only paths
// and episode entries between kept hosts survive. Path data is shared
// with the original (treat both as read-only afterwards), which is how
// the paper derives D2-NA and N2-NA as North American subsets of D2 and
// N2.
func (d *Dataset) Subset(name string, keep []topology.HostID) *Dataset {
	keepSet := map[topology.HostID]bool{}
	for _, h := range keep {
		keepSet[h] = true
	}
	var hosts []topology.HostID
	for _, h := range d.Hosts {
		if keepSet[h] {
			hosts = append(hosts, h)
		}
	}
	out := New(name, hosts)
	for k, p := range d.Paths {
		if keepSet[k.Src] && keepSet[k.Dst] {
			out.Paths[k] = p
		}
	}
	for _, e := range d.Episodes {
		ne := &Episode{At: e.At, RTTMs: map[PairKey]float64{}}
		for k, v := range e.RTTMs {
			if keepSet[k.Src] && keepSet[k.Dst] {
				ne.RTTMs[k] = v
			}
		}
		if len(ne.RTTMs) > 0 {
			out.Episodes = append(out.Episodes, ne)
		}
	}
	return out
}

// PairKeys returns the measured pairs in deterministic order. The
// sorted slice is memoized (and re-derived when the pair set changes,
// including direct writes to Paths, which the length check detects), so
// repeated calls are O(1); callers share the returned slice and must
// not modify it. Safe for concurrent use.
func (d *Dataset) PairKeys() []PairKey {
	d.pairKeysMu.Lock()
	defer d.pairKeysMu.Unlock()
	if d.pairKeys != nil && len(d.pairKeys) == len(d.Paths) {
		return d.pairKeys
	}
	d.pairKeys = SortedKeys(d.Paths, nil)
	return d.pairKeys
}
