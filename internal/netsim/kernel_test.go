package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pathsel/internal/geo"
	"pathsel/internal/topology"
)

// The fused link kernel must reproduce the per-quantity model it
// replaced bit for bit: every dataset, figure and snapshot digest is a
// function of these floats. refModel keeps that model's bodies verbatim
// (only the helpers they call are renamed with a ref prefix) as the
// reference the kernel is compared against with math.Float64bits.
type refModel struct {
	top *topology.Topology
	cfg Config
}

func refValueNoise(seed, entity uint64, t Time, period float64) float64 {
	x := float64(t) / period
	k := math.Floor(x)
	frac := x - k
	a := unit(hash64(seed, entity, uint64(int64(k))))
	b := unit(hash64(seed, entity, uint64(int64(k)+1)))
	// Cosine interpolation avoids derivative discontinuities at grid
	// points that linear interpolation would introduce.
	w := (1 - math.Cos(frac*math.Pi)) / 2
	return a*(1-w) + b*w
}

func refEventAt(seed, entity uint64, t Time, probPerHour, windowSec float64) bool {
	slot := int64(math.Floor(float64(t) / 3600))
	h := hash64(seed^0xABCD, entity, uint64(slot))
	if unit(h) >= probPerHour {
		return false
	}
	// Window offset within the slot, from an independent hash.
	off := unit(hash64(seed^0xFEED, entity, uint64(slot))) * (3600 - windowSec)
	inSlot := float64(t) - float64(slot)*3600
	return inSlot >= off && inSlot < off+windowSec
}

func refLocalHour(t Time, lonDeg float64) float64 {
	offset := (lonDeg + 120) / 15 // hours ahead of PST
	h := math.Mod(t.PSTHour()+offset, 24)
	if h < 0 {
		h += 24
	}
	return h
}

func (n *refModel) activity(t Time, lonDeg float64) float64 {
	h := refLocalHour(t, lonDeg)
	// Distance to 13:00 on the 24h circle.
	d := math.Abs(h - 13)
	if d > 12 {
		d = 24 - d
	}
	a := math.Exp(-d * d / (2 * 4.5 * 4.5))
	if t.Weekend() {
		a *= n.cfg.WeekendFactor
	}
	return a
}

func (n *refModel) exchangeSeverity(exchange int) float64 {
	return 0.35 + 1.5*unit(hash64(uint64(n.cfg.Seed)^0x9999, uint64(exchange)+1, 0))
}

func (n *refModel) baseUtil(l *topology.Link) float64 {
	from := n.top.Router(l.From)
	cls := n.top.AS(from.AS).Class
	u := n.cfg.UtilEdge
	switch {
	case l.Rel != topology.Internal:
		// Inter-AS links inherit the higher of the two sides' classes.
		u = n.cfg.UtilTransit
		if cls == topology.Tier1 && n.top.AS(n.top.Router(l.To).AS).Class == topology.Tier1 {
			u = n.cfg.UtilCore
		}
	case cls == topology.Tier1:
		u = n.cfg.UtilCore
	case cls == topology.Transit:
		u = n.cfg.UtilTransit
	}
	if l.Exchange >= 0 {
		u += n.cfg.ExchangeBump * n.exchangeSeverity(l.Exchange)
	}
	return u
}

func (n *refModel) linkLon(l *topology.Link) float64 {
	a := n.top.Router(l.From).Loc
	b := n.top.Router(l.To).Loc
	return (a.LonDeg + b.LonDeg) / 2
}

func (n *refModel) Utilization(lid topology.LinkID, t Time) float64 {
	l := n.top.Link(lid)
	cfg := n.cfg
	act := n.activity(t, n.linkLon(l))
	day := cfg.NightFloor + (1-cfg.NightFloor)*act
	u := n.baseUtil(l) * day

	seed := uint64(cfg.Seed)
	id := uint64(lid) + 1
	u += cfg.DriftAmp * (refValueNoise(seed, id, t, cfg.DriftPeriodSec) - 0.5) * 2
	u += cfg.JitterAmp * (refValueNoise(seed^0x5555, id, t, cfg.JitterPeriodSec) - 0.5) * 2
	if l.Exchange >= 0 {
		// Exchange-wide congestion shared by all links at the fabric.
		exID := uint64(l.Exchange) + 0x1000
		u += cfg.ExchangeNoiseAmp * (refValueNoise(seed^0x7777, exID, t, cfg.DriftPeriodSec) - 0.5) * 2
	}
	return clamp(u, 0.02, 0.99)
}

func (n *refModel) LinkPropMs(lid topology.LinkID, t Time) float64 {
	l := n.top.Link(lid)
	amp := n.cfg.RouteWanderAmp
	if amp == 0 {
		return l.PropDelayMs
	}
	w := refValueNoise(uint64(n.cfg.Seed)^0x3333, uint64(lid)+1, t, n.cfg.RouteWanderPeriodSec)
	return l.PropDelayMs * (1 + amp*(w-0.5)*2)
}

func (n *refModel) serviceTimeMs(l *topology.Link) float64 {
	return n.cfg.PacketBytes * 8 / (l.CapacityMbps * 1000)
}

func (n *refModel) QueueDelayMs(lid topology.LinkID, t Time) float64 {
	l := n.top.Link(lid)
	u := n.Utilization(lid, t)
	s := n.serviceTimeMs(l)
	w := s * u / (1 - u)
	if max := s * n.cfg.BufferPackets; w > max {
		w = max
	}
	if u > n.cfg.QueueKnee {
		x := (u - n.cfg.QueueKnee) / (1 - n.cfg.QueueKnee)
		w += n.cfg.BufferMs * x * x
	}
	return w
}

func (n *refModel) LossProb(lid topology.LinkID, t Time) float64 {
	cfg := n.cfg
	u := n.Utilization(lid, t)
	p := cfg.BaseLoss
	if u > cfg.LossKnee {
		x := (u - cfg.LossKnee) / (1 - cfg.LossKnee)
		p += cfg.CongestionLoss * x * x * x
	}
	if refEventAt(uint64(cfg.Seed), uint64(lid)+1, t, cfg.FlapProbPerHour, cfg.FlapWindowSec) {
		p = 1 - (1-p)*(1-cfg.FlapLoss)
	}
	return clamp(p, 0, 1)
}

func (n *refModel) accessState(h *topology.Host, t Time) (delayMs, loss float64) {
	cfg := n.cfg
	act := n.activity(t, h.Loc.LonDeg)
	u := cfg.UtilAccess * (cfg.NightFloor + (1-cfg.NightFloor)*act)
	id := uint64(h.ID) + 0x9000000
	u += cfg.DriftAmp * (refValueNoise(uint64(cfg.Seed)^0x1212, id, t, cfg.DriftPeriodSec) - 0.5) * 2
	u = clamp(u, 0.02, 0.99)
	s := cfg.PacketBytes * 8 / (h.AccessCapacityMbps * 1000)
	w := s * u / (1 - u)
	if max := s * cfg.BufferPackets; w > max {
		w = max
	}
	if u > cfg.QueueKnee {
		x := (u - cfg.QueueKnee) / (1 - cfg.QueueKnee)
		w += cfg.BufferMs * x * x
	}
	p := cfg.BaseLoss
	if u > cfg.LossKnee {
		x := (u - cfg.LossKnee) / (1 - cfg.LossKnee)
		p += cfg.CongestionLoss * x * x * x
	}
	return h.AccessDelayMs + w, clamp(p, 0, 1)
}

func (n *refModel) EvalLinks(links []topology.LinkID, t Time) PathState {
	st := PathState{}
	surv := 1.0
	for _, lid := range links {
		prop := n.LinkPropMs(lid, t)
		st.PropDelayMs += prop
		st.DelayMs += prop + n.QueueDelayMs(lid, t)
		surv *= 1 - n.LossProb(lid, t)
	}
	st.LossProb = 1 - surv
	return st
}

func (n *refModel) EvalHostPath(src, dst topology.HostID, links []topology.LinkID, t Time) (PathState, error) {
	hs, hd := n.top.Host(src), n.top.Host(dst)
	if hs == nil || hd == nil {
		return PathState{}, fmt.Errorf("netsim: unknown host %d or %d", src, dst)
	}
	st := n.EvalLinks(links, t)
	sd, sl := n.accessState(hs, t)
	dd, dl := n.accessState(hd, t)
	st.DelayMs += sd + dd
	st.PropDelayMs += hs.AccessDelayMs + hd.AccessDelayMs
	st.LossProb = 1 - (1-st.LossProb)*(1-sl)*(1-dl)
	return st, nil
}

// quickPlane is one era's quick-preset topology with its network
// configuration.
type quickPlane struct {
	name string
	top  *topology.Topology
	cfg  Config
}

// quickPlanes returns the quick-preset topologies of both eras for the
// paper's seed, configured as internal/experiments configures its UW
// (1999, North America) and D2 (1995, world) planes, with the network
// seeds those planes use.
func quickPlanes(t *testing.T) []quickPlane {
	t.Helper()
	uw := topology.DefaultConfig(topology.Era1999)
	uw.Seed, uw.Region, uw.NumHosts = 1, geo.NorthAmerica, 30
	uw.NumTier1, uw.NumTransit, uw.NumStub, uw.RoutersTier1 = 5, 14, 60, 8
	d2 := topology.DefaultConfig(topology.Era1995)
	d2.Seed, d2.Region, d2.NumHosts = 2, geo.World, 14
	d2.NumTier1, d2.NumTransit, d2.NumStub = 4, 10, 50

	var planes []quickPlane
	for _, p := range []struct {
		name    string
		top     topology.Config
		netSeed int64
	}{{"uw1999", uw, 102}, {"d21995", d2, 103}} {
		top, err := topology.Generate(p.top)
		if err != nil {
			t.Fatalf("%s: Generate: %v", p.name, err)
		}
		cfg := ConfigFor(p.top.Era)
		cfg.Seed = p.netSeed
		planes = append(planes, quickPlane{p.name, top, cfg})
	}
	return planes
}

// kernelTimes is the differential test's time grid: exact multiples of
// every period the model uses (jitter 15 s, drift 600 s, outage slots
// 3600 s, route wander 100 000 s) and of the day and week, the same
// instants nudged either side, weekend edges, negative times, and
// pseudo-random times across six weeks.
func kernelTimes() []Time {
	var ts []Time
	for _, base := range []float64{15, 600, 3600, SecondsPerDay, 100000, SecondsPerWeek} {
		for _, k := range []float64{-3, -1, 0, 1, 2, 5, 7} {
			for _, off := range []float64{-1, -1e-6, 0, 1e-6, 0.5} {
				ts = append(ts, Time(k*base+off))
			}
		}
	}
	for _, edge := range []float64{5 * SecondsPerDay, 7 * SecondsPerDay, -2 * SecondsPerDay, 12 * SecondsPerDay} {
		ts = append(ts, Time(edge-1e-9), Time(edge), Time(edge+1e-9))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 150; i++ {
		ts = append(ts, Time((rng.Float64()*6-2)*SecondsPerWeek))
	}
	return ts
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestKernelMatchesReferenceBitForBit(t *testing.T) {
	times := kernelTimes()
	for _, q := range quickPlanes(t) {
		for _, amp := range []float64{q.cfg.RouteWanderAmp, 0} {
			cfg := q.cfg
			cfg.RouteWanderAmp = amp
			n, ref := New(q.top, cfg), &refModel{top: q.top, cfg: cfg}
			label := fmt.Sprintf("%s wander=%g", q.name, amp)
			var events, exchange int
			for _, l := range q.top.Links {
				if l.Exchange >= 0 {
					exchange++
				}
				for _, tm := range times {
					got := n.LinkState(l.ID, tm)
					want := LinkState{
						Util:    ref.Utilization(l.ID, tm),
						PropMs:  ref.LinkPropMs(l.ID, tm),
						QueueMs: ref.QueueDelayMs(l.ID, tm),
						Loss:    ref.LossProb(l.ID, tm),
					}
					if !sameBits(got.Util, want.Util) || !sameBits(got.PropMs, want.PropMs) ||
						!sameBits(got.QueueMs, want.QueueMs) || !sameBits(got.Loss, want.Loss) {
						t.Fatalf("%s link %d at %v: kernel %+v, reference %+v", label, l.ID, tm, got, want)
					}
					if refEventAt(uint64(cfg.Seed), uint64(l.ID)+1, tm, cfg.FlapProbPerHour, cfg.FlapWindowSec) {
						events++
					}
				}
			}
			if events == 0 || exchange == 0 {
				t.Errorf("%s: grid exercised %d outage windows on %d exchange links; want both > 0", label, events, exchange)
			}
			t.Logf("%s: %d links, %d hosts, %d times, %d outage-window samples",
				label, len(q.top.Links), len(q.top.Hosts), len(times), events)

			hosts := q.top.Hosts
			for i, hs := range hosts {
				hd := hosts[(i+1)%len(hosts)]
				lo := (i * 7) % len(q.top.Links)
				links := make([]topology.LinkID, 0, 9)
				for j := lo; j < lo+9 && j < len(q.top.Links); j++ {
					links = append(links, q.top.Links[j].ID)
				}
				for _, tm := range times {
					got, err := n.EvalHostPath(hs.ID, hd.ID, links, tm)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := ref.EvalHostPath(hs.ID, hd.ID, links, tm)
					if !sameBits(got.DelayMs, want.DelayMs) || !sameBits(got.PropDelayMs, want.PropDelayMs) ||
						!sameBits(got.LossProb, want.LossProb) {
						t.Fatalf("%s path %d->%d at %v: EvalHostPath %+v, reference %+v", label, hs.ID, hd.ID, tm, got, want)
					}
					d, l, ok := n.HostAccessState(hs.ID, tm)
					wd, wl := ref.accessState(hs, tm)
					if !ok || !sameBits(d, wd) || !sameBits(l, wl) {
						t.Fatalf("%s host %d at %v: access (%v, %v), reference (%v, %v)", label, hs.ID, tm, d, l, wd, wl)
					}
				}
			}
		}
	}
}

// TestLocalHourMatchesMod checks localHour's shortcut for math.Mod
// against the original expression at every longitude, including the
// offsets that take pst+offset below 0 and above 24.
func TestLocalHourMatchesMod(t *testing.T) {
	var below, above int
	for _, tm := range kernelTimes() {
		for lon := -180.0; lon <= 180; lon += 0.75 {
			if x := tm.PSTHour() + (lon+120)/15; x < 0 {
				below++
			} else if x >= 24 {
				above++
			}
			if got, want := tm.LocalHour(lon), refLocalHour(tm, lon); !sameBits(got, want) {
				t.Fatalf("LocalHour(%v) at %v = %v, want %v", lon, tm, got, want)
			}
		}
	}
	if below == 0 || above == 0 {
		t.Errorf("grid never wrapped: %d below 0, %d at or above 24", below, above)
	}
}

func TestEvalHostPathAllocatesNothing(t *testing.T) {
	top, n := testNetwork(t)
	links := make([]topology.LinkID, 20)
	for i := range links {
		links[i] = top.Links[(i*37)%len(top.Links)].ID
	}
	src, dst := top.Hosts[0].ID, top.Hosts[1].ID
	tm := Time(0)
	allocs := testing.AllocsPerRun(200, func() {
		tm += 97
		if _, err := n.EvalHostPath(src, dst, links, tm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EvalHostPath allocates %v times per call, want 0", allocs)
	}
}

// walkLinks follows up to hops random out-links from router start, the
// shape of a forwarding path: runs of PoP-internal links between
// inter-AS hops.
func walkLinks(top *topology.Topology, start topology.RouterID, hops int, rng *rand.Rand) []topology.LinkID {
	var out []topology.LinkID
	cur := start
	for len(out) < hops {
		outs := top.OutLinks(cur)
		if len(outs) == 0 {
			break
		}
		lid := outs[rng.Intn(len(outs))]
		out = append(out, lid)
		cur = top.Link(lid).To
	}
	return out
}

// reverseLinks returns the links that retrace links backwards, the
// symmetric reverse path, skipping any link without a reverse twin.
func reverseLinks(top *topology.Topology, links []topology.LinkID) []topology.LinkID {
	var out []topology.LinkID
	for i := len(links) - 1; i >= 0; i-- {
		l := top.Link(links[i])
		for _, rid := range top.OutLinks(l.To) {
			if top.Link(rid).To == l.From {
				out = append(out, rid)
				break
			}
		}
	}
	return out
}

func TestEvalRoundTripMatchesReference(t *testing.T) {
	times := kernelTimes()
	for _, q := range quickPlanes(t) {
		// At the configured access load every access link sits at the
		// loss floor, so both endpoints' losses are equal; the hot
		// variant pushes access links past the loss knee, where the
		// order the two are multiplied in shows in the bits.
		for _, v := range []struct {
			wander, access float64
		}{{q.cfg.RouteWanderAmp, q.cfg.UtilAccess}, {0, q.cfg.UtilAccess}, {q.cfg.RouteWanderAmp, 0.85}} {
			cfg := q.cfg
			cfg.RouteWanderAmp, cfg.UtilAccess = v.wander, v.access
			n, ref := New(q.top, cfg), &refModel{top: q.top, cfg: cfg}
			label := fmt.Sprintf("%s wander=%g access=%g", q.name, v.wander, v.access)
			rng := rand.New(rand.NewSource(11))
			hosts := q.top.Hosts
			for i := 0; i < 12; i++ {
				hs, hd := hosts[i%len(hosts)], hosts[(i*5+3)%len(hosts)]
				fwd := walkLinks(q.top, hs.Attach, 12, rng)
				sym := reverseLinks(q.top, fwd)
				if len(sym) != len(fwd) {
					t.Fatalf("%s: %d of %d links have a reverse twin", label, len(sym), len(fwd))
				}
				asym := walkLinks(q.top, hd.Attach, 9, rng)
				for _, c := range []struct {
					name     string
					fwd, rev []topology.LinkID
				}{
					{"symmetric", fwd, sym},
					{"asymmetric", fwd, asym},
					{"empty-forward", nil, asym},
					{"empty-reverse", fwd, nil},
					{"both-empty", nil, nil},
				} {
					for _, tm := range times {
						gotF, gotR, err := n.EvalRoundTrip(hs.ID, hd.ID, c.fwd, c.rev, tm)
						if err != nil {
							t.Fatal(err)
						}
						wantF, _ := ref.EvalHostPath(hs.ID, hd.ID, c.fwd, tm)
						wantR, _ := ref.EvalHostPath(hd.ID, hs.ID, c.rev, tm)
						for _, d := range []struct {
							dir       string
							got, want PathState
						}{{"forward", gotF, wantF}, {"reverse", gotR, wantR}} {
							if !sameBits(d.got.DelayMs, d.want.DelayMs) || !sameBits(d.got.PropDelayMs, d.want.PropDelayMs) ||
								!sameBits(d.got.LossProb, d.want.LossProb) {
								t.Fatalf("%s %s %d->%d %s at %v: EvalRoundTrip %+v, reference %+v",
									label, c.name, hs.ID, hd.ID, d.dir, tm, d.got, d.want)
							}
						}
					}
				}
			}
		}
	}
	q := quickPlanes(t)[0]
	n := New(q.top, q.cfg)
	known := q.top.Hosts[0].ID
	for _, pair := range [][2]topology.HostID{{-1, known}, {known, topology.HostID(len(q.top.Hosts) + 100)}} {
		if _, _, err := n.EvalRoundTrip(pair[0], pair[1], nil, nil, 0); err == nil {
			t.Errorf("EvalRoundTrip(%d, %d): no error for an unknown host", pair[0], pair[1])
		}
	}
}

func TestEvalRoundTripAllocatesNothing(t *testing.T) {
	top, n := testNetwork(t)
	fwd, rev := make([]topology.LinkID, 20), make([]topology.LinkID, 20)
	for i := range fwd {
		fwd[i] = top.Links[(i*37)%len(top.Links)].ID
		rev[i] = top.Links[(i*41+5)%len(top.Links)].ID
	}
	src, dst := top.Hosts[0].ID, top.Hosts[1].ID
	tm := Time(0)
	allocs := testing.AllocsPerRun(200, func() {
		tm += 97
		if _, _, err := n.EvalRoundTrip(src, dst, fwd, rev, tm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EvalRoundTrip allocates %v times per call, want 0", allocs)
	}
}
