// Link model: every hop a packet crosses — the source access uplink,
// each core link on the forwarding path, the destination access
// downlink — is a bounded drop-tail FIFO in front of a serial
// transmitter, following the netem decomposition of link latency into
// transmission time, queuing delay and propagation delay. Background
// traffic enters twice, both terms sampled from netsim on a fixed time
// grid: as residual capacity (a utilization-u link serves our packets
// at (1-u) of line rate) and as the standing queue already in front of
// the link (netsim's expected queuing delay).

package packetnet

import (
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// residFloor caps the residual-capacity slowdown: a link at 99%+
// utilization still serves at 1% of line rate rather than stalling.
const residFloor = 0.01

// linkState is the mutable per-hop queue plus the background state
// sampled for the current grid bucket. One instance exists per core
// link direction and per host access-link direction.
type linkState struct {
	// busyUntil is when the transmitter finishes the last queued packet,
	// in seconds of simulated time; the backlog at time t is
	// busyUntil - t.
	busyUntil float64

	// bucket is 1 + the sample-grid index the fields below were
	// evaluated for (0 = never sampled).
	bucket int64

	propSec    float64 // propagation + standing background queue, one way
	lossProb   float64 // per-packet background loss
	secPerByte float64 // transmission seconds per wire byte at residual capacity
}

// sampleCore refreshes a core link's background state if t has crossed
// into a new grid bucket. State is evaluated at the bucket start, so the
// result is independent of which packet happened to arrive first.
func (n *Network) sampleCore(ls *linkState, l *topology.Link, t netsim.Time) {
	b := int64(float64(t)/n.cfg.SamplePeriodSec) + 1
	if ls.bucket == b {
		return
	}
	ls.bucket = b
	ts := netsim.Time(float64(b-1) * n.cfg.SamplePeriodSec)
	u := n.cfg.FixedUtilization
	if u >= 0 {
		ls.propSec = l.PropDelayMs / 1000
		ls.lossProb = 0
	} else {
		st := n.ns.LinkState(l.ID, ts)
		u = st.Util
		ls.propSec = (st.PropMs + st.QueueMs) / 1000
		ls.lossProb = st.Loss
	}
	resid := 1 - u
	if resid < residFloor {
		resid = residFloor
	}
	ls.secPerByte = 8 / (l.CapacityMbps * 1e6 * resid)
}

// sampleAccess refreshes a host access link's state. Access links have
// no modeled cross-traffic competing for capacity, so the full
// configured rate applies; netsim's access model supplies the expected
// queuing delay and loss.
func (n *Network) sampleAccess(ls *linkState, h *topology.Host, t netsim.Time) {
	b := int64(float64(t)/n.cfg.SamplePeriodSec) + 1
	if ls.bucket == b {
		return
	}
	ls.bucket = b
	ts := netsim.Time(float64(b-1) * n.cfg.SamplePeriodSec)
	if n.cfg.FixedUtilization >= 0 {
		ls.propSec = h.AccessDelayMs / 1000
		ls.lossProb = 0
	} else {
		d, l, _ := n.ns.HostAccessState(h.ID, ts)
		ls.propSec = d / 1000
		ls.lossProb = l
	}
	ls.secPerByte = 8 / (h.AccessCapacityMbps * 1e6)
}

// coreLink returns the queue state for a core link, creating it on
// first use.
func (n *Network) coreLink(lid topology.LinkID) *linkState {
	ls := n.links[lid]
	if ls == nil {
		ls = &linkState{}
		n.links[lid] = ls
	}
	return ls
}

// accessLink returns the queue state for a host's access link in the
// given direction (up = host to network).
func (n *Network) accessLink(h topology.HostID, up bool) *linkState {
	m := n.accessDn
	if up {
		m = n.accessUp
	}
	ls := m[h]
	if ls == nil {
		ls = &linkState{}
		m[h] = ls
	}
	return ls
}

// hopSalt values keep the per-hop loss draws of one packet independent.
const (
	saltAccessUp = uint64(1) << 40
	saltAccessDn = uint64(2) << 40
	saltExtra    = uint64(3) << 40
)

// traverse pushes one packet through a sampled hop at time t and
// returns the arrival time at the far end, or ok=false when the packet
// is dropped (drop-tail on a full queue, or a background loss draw).
// Callers must hold n.mu and must have sampled ls for time t.
func (n *Network) traverse(ls *linkState, wire int, pktID, hopSalt uint64, t netsim.Time) (netsim.Time, bool) {
	now := float64(t)
	backlog := ls.busyUntil - now
	if backlog < 0 {
		backlog = 0
	}
	// Drop-tail: the queue holds at most QueuePackets full-size packets'
	// worth of transmission time.
	full := float64(n.cfg.MSSBytes+n.cfg.HeaderBytes) * ls.secPerByte
	if backlog > float64(n.cfg.QueuePackets)*full {
		n.stats.QueueDrops++
		return 0, false
	}
	if ls.lossProb > 0 && unit(mix64(uint64(n.cfg.Seed), pktID, hopSalt)) < ls.lossProb {
		n.stats.RandomLosses++
		return 0, false
	}
	done := now + backlog + float64(wire)*ls.secPerByte
	// Scheduler invariants, exercised by FuzzDataPlane: service
	// completions on one link are FIFO (monotone), and an admitted
	// packet's wait never exceeds the configured queue bound plus its
	// own service time.
	if done < ls.busyUntil {
		panic("packetnet: link FIFO order violated")
	}
	if backlog > (float64(n.cfg.QueuePackets)+1)*full {
		panic("packetnet: link queue exceeded its bound")
	}
	ls.busyUntil = done
	return netsim.Time(done + ls.propSec), true
}

// sendSegment resolves the current path for a segment and schedules its
// hop-by-hop traversal. Dropped packets simply vanish — reliability is
// the transport's job. Callers must hold n.mu.
func (n *Network) sendSegment(src, dst topology.HostID, seg segment) {
	n.pktSeq++
	pktID := n.pktSeq
	n.stats.PacketsSent++
	path, err := n.paths.PathAt(src, dst, n.now)
	if err != nil {
		n.stats.Unroutable++
		return
	}
	if n.cfg.ExtraLossProb > 0 &&
		unit(mix64(uint64(n.cfg.Seed), pktID, saltExtra)) < n.cfg.ExtraLossProb {
		n.stats.RandomLosses++
		return
	}
	wire := seg.payloadLen + n.cfg.HeaderBytes

	// Source access uplink.
	hs, hd := n.top.Host(src), n.top.Host(dst)
	up := n.accessLink(src, true)
	n.sampleAccess(up, hs, n.now)
	at, ok := n.traverse(up, wire, pktID, saltAccessUp, n.now)
	if !ok {
		return
	}

	// Core links, then the destination access downlink, each entered by
	// a scheduled event at the packet's arrival time so queue state is
	// read at the right simulated instant.
	links := path.Links
	var hop func(i int, t netsim.Time)
	hop = func(i int, t netsim.Time) {
		if i < len(links) {
			l := n.top.Link(links[i])
			ls := n.coreLink(links[i])
			n.sampleCore(ls, l, t)
			next, ok := n.traverse(ls, wire, pktID, uint64(links[i]), t)
			if !ok {
				return
			}
			n.schedule(next, func() { hop(i+1, next) })
			return
		}
		dn := n.accessLink(dst, false)
		n.sampleAccess(dn, hd, t)
		next, ok := n.traverse(dn, wire, pktID, saltAccessDn, t)
		if !ok {
			return
		}
		next += netsim.Time(n.cfg.ExtraDelayMs / 1000)
		n.schedule(next, func() { n.deliver(seg) })
	}
	n.schedule(at, func() { hop(0, at) })
}

// deliver hands a segment that survived the data plane to its endpoint,
// or to a matching listener for SYNs. Callers must hold n.mu.
func (n *Network) deliver(seg segment) {
	if seg.dst != nil {
		seg.dst.receive(seg)
		return
	}
	// SYN addressed to a listener.
	lst := n.listeners[seg.dstAddr]
	if lst == nil || lst.closed {
		return // connection refused: no RST modeled, the SYN times out
	}
	lst.handleSYN(seg)
}
