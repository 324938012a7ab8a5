// TCP Reno over the packet data plane. The endpoint implements the
// same congestion-control semantics as internal/tcpsim's rounds model —
// slow start to InitialSSThresh, AIMD congestion avoidance, fast
// retransmit on three duplicate ACKs, exponential RTO backoff with
// Karn's rule — but as an event-driven state machine exchanging real
// segments, so queue interaction, burst losses and reordering all feed
// back into the window like they would on a kernel stack.
//
// Sequence space: byte 0 is the SYN, application byte k occupies
// sequence 1+k, and the FIN occupies one byte after the last data byte.
// Synthetic pairs created by Transfer skip the handshake and start
// established at sequence 1.

package packetnet

import (
	"fmt"

	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// Addr is a (host, port) endpoint address on the simulated network.
// It implements net.Addr.
type Addr struct {
	Host topology.HostID
	Port int
}

// Network returns the address family name.
func (a Addr) Network() string { return "packetnet" }

// String formats the address like host<id>:<port>.
func (a Addr) String() string { return fmt.Sprintf("host%d:%d", a.Host, a.Port) }

// segment is one TCP segment on the wire. Every segment carries a
// cumulative ACK and an advertised window; data segments additionally
// cover the sequence span [seq, end).
type segment struct {
	src *endpoint // sender, so the receiver can address replies
	dst *endpoint // nil for SYNs, which are routed to a listener by dstAddr

	srcAddr, dstAddr Addr

	seq, end uint64 // sequence span; equal for pure ACKs
	ack      uint64 // cumulative acknowledgment
	wnd      int    // advertised receive window, bytes

	syn, fin bool
	probe    bool // zero-window probe: carries no data but must be ACKed

	// payload holds the data bytes for conn-mode senders; nil in count
	// mode, where only the sequence span is accounted. payloadLen is
	// the wire size of the data portion either way.
	payload    []byte
	payloadLen int
}

// EndpointStats counts transport events at one endpoint.
type EndpointStats struct {
	SegmentsSent    int
	Retransmits     int
	Timeouts        int
	FastRetransmits int
	DupAcks         int
	// OutOfOrder counts arriving segments beyond the next expected
	// sequence number — the receiver-side signature of reordering or
	// loss.
	OutOfOrder int
}

// maxBackoff caps the RTO doubling exponent.
const maxBackoff = 12

// endpoint is one half of a TCP connection. All fields are guarded by
// the owning Network's mutex; methods are invoked from the event loop
// or from API calls holding it.
type endpoint struct {
	n      *Network
	local  Addr
	remote Addr
	peer   *endpoint // learned from the first segment that carries a src

	listener *Listener // server side: where to surface the conn once established

	established bool
	countSend   bool // infinite synthetic source (Transfer sender)
	countRecv   bool // discard payloads, count bytes (Transfer receiver)

	// Sender state.
	una, nxt uint64 // oldest unacked / next to send
	dataEnd  uint64 // sequence just past the last application byte
	sndBuf   []byte // conn mode: bytes [bufSeq, dataEnd)
	bufSeq   uint64
	closing  bool // FIN enqueued at dataEnd

	cwnd, ssthresh float64 // segments
	dupAcks        int
	inRecovery     bool
	recover        uint64
	peerWnd        int

	haveRTT      bool
	srtt, rttvar float64 // seconds
	rtoBase      float64 // seconds, before backoff
	backoff      int
	timerGen     uint64 // invalidates outstanding timer events
	timerArmed   bool
	probeArmed   bool
	timedSeq     uint64 // RTT measurement in flight (Karn: first txs only)
	timedAt      netsim.Time
	timedValid   bool

	// Receiver state.
	rcvNxt  uint64
	ooo     []segment // out-of-order queue, sorted by seq, disjoint spans
	rcvBuf  []byte    // conn mode: delivered, unread bytes
	peerFin bool

	readDeadline  netsim.Time // noDeadline when unset
	writeDeadline netsim.Time

	closed bool  // local Close called
	err    error // fatal error surfaced to API calls

	stats EndpointStats
}

// newEndpoint creates an endpoint in the closed state.
func (n *Network) newEndpoint(local, remote Addr) *endpoint {
	return &endpoint{
		n:        n,
		local:    local,
		remote:   remote,
		cwnd:     1,
		ssthresh: n.cfg.InitialSSThresh,
		peerWnd:  n.cfg.RecvWindowBytes,
		rtoBase:  1.0, // RFC 6298 initial RTO
		// Sequence byte 0 is the SYN; application data starts at 1.
		dataEnd:       1,
		bufSeq:        1,
		readDeadline:  noDeadline,
		writeDeadline: noDeadline,
	}
}

// startEstablished skips the handshake: sequence 1 on both sides, as
// Transfer's synthetic pairs use.
func (ep *endpoint) startEstablished() {
	ep.established = true
	ep.una, ep.nxt, ep.rcvNxt = 1, 1, 1
	ep.dataEnd, ep.bufSeq = 1, 1
}

// --- sender ---

// availEnd returns the sequence just past everything currently
// sendable, including the FIN's virtual byte.
func (ep *endpoint) availEnd() uint64 {
	e := ep.dataEnd
	if ep.closing {
		e++
	}
	return e
}

// windowBytes returns the effective send window: the congestion window
// in segments, capped by MaxWindow and the peer's advertised window.
func (ep *endpoint) windowBytes() int {
	segs := int(ep.cwnd)
	if m := int(ep.n.cfg.MaxWindow); segs > m {
		segs = m
	}
	if segs < 1 {
		segs = 1
	}
	w := segs * ep.n.cfg.MSSBytes
	if w > ep.peerWnd {
		w = ep.peerWnd
	}
	return w
}

// sendRange transmits the sequence span [s, e) as one segment.
func (ep *endpoint) sendRange(s, e uint64, retransmit bool) {
	seg := segment{seq: s, end: e}
	if s == 0 {
		// Byte 0 is the SYN; it travels alone.
		seg.syn = true
		e = 1
		seg.end = 1
	}
	dataStart, dataEnd := s, e
	if seg.syn {
		dataStart++
	}
	if ep.closing && e == ep.dataEnd+1 {
		seg.fin = true
		dataEnd--
	}
	if dataEnd > dataStart {
		seg.payloadLen = int(dataEnd - dataStart)
		if !ep.countSend {
			seg.payload = ep.sndBuf[dataStart-ep.bufSeq : dataEnd-ep.bufSeq]
		}
	}
	ep.stats.SegmentsSent++
	if retransmit {
		ep.stats.Retransmits++
	} else if !ep.timedValid {
		// Time one segment per RTT; Karn's rule — never a retransmit.
		ep.timedSeq = e
		ep.timedAt = ep.n.now
		ep.timedValid = true
	}
	ep.emit(seg)
}

// emit stamps the segment with addressing, the cumulative ACK and the
// advertised window, then injects it into the data plane.
func (ep *endpoint) emit(seg segment) {
	seg.src = ep
	seg.dst = ep.peer
	seg.srcAddr = ep.local
	seg.dstAddr = ep.remote
	seg.ack = ep.rcvNxt
	seg.wnd = ep.advertiseWindow()
	ep.n.sendSegment(ep.local.Host, ep.remote.Host, seg)
}

// pump sends as much new data as the window allows.
func (ep *endpoint) pump() {
	if ep.err != nil {
		return
	}
	if !ep.established {
		if ep.nxt == 0 {
			ep.sendRange(0, 1, false)
			ep.nxt = 1
			ep.armTimer()
		}
		return
	}
	mss := uint64(ep.n.cfg.MSSBytes)
	for {
		limit := ep.una + uint64(ep.windowBytes())
		end := ep.availEnd()
		if end > limit {
			end = limit
		}
		if ep.nxt >= end {
			break
		}
		e := ep.nxt + mss
		if e > end {
			e = end
		}
		ep.sendRange(ep.nxt, e, false)
		ep.nxt = e
		if !ep.timerArmed {
			ep.armTimer()
		}
	}
	// Zero-window stall with pending data and nothing in flight: probe
	// so a lost window update cannot deadlock the connection.
	if ep.una == ep.nxt && ep.availEnd() > ep.nxt &&
		ep.peerWnd < ep.n.cfg.MSSBytes && !ep.probeArmed {
		ep.armProbe()
	}
}

// retransmitHead resends the oldest unacknowledged segment.
func (ep *endpoint) retransmitHead() {
	e := ep.una + uint64(ep.n.cfg.MSSBytes)
	if end := ep.availEnd(); e > end {
		e = end
	}
	if nxt := ep.nxt; e > nxt {
		e = nxt
	}
	if e <= ep.una {
		return
	}
	ep.sendRange(ep.una, e, true)
}

// onAck processes the cumulative ACK and window fields of any arriving
// segment.
func (ep *endpoint) onAck(ack uint64, wnd int) {
	ep.peerWnd = wnd
	mss := float64(ep.n.cfg.MSSBytes)
	switch {
	case ack > ep.nxt:
		return // acks data never sent; ignore
	case ack > ep.una:
		acked := float64(ack - ep.una)
		ep.una = ack
		if !ep.countSend {
			// The FIN's sequence byte has no byte in sndBuf.
			done := min(ack, ep.dataEnd)
			ep.sndBuf = ep.sndBuf[done-ep.bufSeq:]
			ep.bufSeq = done
		}
		if ep.timedValid && ack >= ep.timedSeq {
			ep.rttSample(float64(ep.n.now - ep.timedAt))
			ep.timedValid = false
		}
		ep.backoff = 0
		if ep.inRecovery {
			if ack >= ep.recover {
				ep.inRecovery = false
				ep.cwnd = ep.ssthresh
				ep.dupAcks = 0
			}
		} else {
			ep.dupAcks = 0
			segs := acked / mss
			if ep.cwnd < ep.ssthresh {
				ep.cwnd += segs // slow start
			} else {
				ep.cwnd += segs / ep.cwnd // congestion avoidance
			}
			if ep.cwnd > ep.n.cfg.MaxWindow {
				ep.cwnd = ep.n.cfg.MaxWindow
			}
		}
		if !ep.established && ep.una >= 1 {
			ep.onEstablished()
		}
		if ep.una == ep.nxt {
			ep.cancelTimer()
		} else {
			ep.armTimer() // restart on progress
		}
		ep.pump()
	case ack == ep.una && ep.nxt > ep.una:
		ep.dupAcks++
		ep.stats.DupAcks++
		if ep.dupAcks == 3 && !ep.inRecovery {
			flight := float64(ep.nxt-ep.una) / mss
			ep.ssthresh = flight / 2
			if ep.ssthresh < 2 {
				ep.ssthresh = 2
			}
			ep.cwnd = ep.ssthresh
			ep.inRecovery = true
			ep.recover = ep.nxt
			ep.stats.FastRetransmits++
			ep.retransmitHead()
			ep.armTimer()
		}
	default:
		ep.pump() // pure window update
	}
}

// rttSample folds one RTT measurement into SRTT/RTTVAR (RFC 6298).
func (ep *endpoint) rttSample(s float64) {
	if !ep.haveRTT {
		ep.haveRTT = true
		ep.srtt = s
		ep.rttvar = s / 2
	} else {
		d := s - ep.srtt
		if d < 0 {
			d = -d
		}
		ep.rttvar = 0.75*ep.rttvar + 0.25*d
		ep.srtt = 0.875*ep.srtt + 0.125*s
	}
	ep.rtoBase = ep.srtt + 4*ep.rttvar
}

// rtoEff returns the current timeout with backoff, clamped to the
// configured bounds.
func (ep *endpoint) rtoEff() float64 {
	r := ep.rtoBase * float64(uint64(1)<<ep.backoff)
	if min := ep.n.cfg.RTOMinMs / 1000; r < min {
		r = min
	}
	if max := ep.n.cfg.RTOMaxMs / 1000; r > max {
		r = max
	}
	return r
}

// armTimer (re)starts the retransmission timer.
func (ep *endpoint) armTimer() {
	ep.timerGen++
	ep.timerArmed = true
	gen := ep.timerGen
	ep.n.schedule(ep.n.now+netsim.Time(ep.rtoEff()), func() { ep.onTimeout(gen) })
}

// cancelTimer invalidates any outstanding timer event.
func (ep *endpoint) cancelTimer() {
	ep.timerGen++
	ep.timerArmed = false
}

// onTimeout handles RTO expiry: multiplicative backoff, window
// collapse, retransmit from una.
func (ep *endpoint) onTimeout(gen uint64) {
	if gen != ep.timerGen || ep.una == ep.nxt || ep.err != nil {
		return
	}
	ep.stats.Timeouts++
	flight := float64(ep.nxt-ep.una) / float64(ep.n.cfg.MSSBytes)
	ep.ssthresh = flight / 2
	if ep.ssthresh < 2 {
		ep.ssthresh = 2
	}
	ep.cwnd = 1
	ep.inRecovery = false
	ep.dupAcks = 0
	if ep.backoff < maxBackoff {
		ep.backoff++
	}
	ep.timedValid = false // Karn: no RTT sample across a retransmit
	ep.retransmitHead()
	ep.armTimer()
}

// armProbe schedules a zero-window probe.
func (ep *endpoint) armProbe() {
	ep.probeArmed = true
	ep.n.schedule(ep.n.now+netsim.Time(ep.rtoEff()), func() { ep.onProbe() })
}

// onProbe sends a window probe if the sender is still stalled.
func (ep *endpoint) onProbe() {
	ep.probeArmed = false
	if ep.err != nil || !ep.established || ep.closed && ep.una == ep.availEnd() {
		return
	}
	if ep.peerWnd >= ep.n.cfg.MSSBytes || ep.availEnd() == ep.nxt || ep.una != ep.nxt {
		ep.pump()
		return
	}
	ep.emit(segment{seq: ep.nxt, end: ep.nxt, probe: true})
	ep.armProbe()
}

// --- receiver ---

// advertiseWindow returns the flow-control window to advertise.
func (ep *endpoint) advertiseWindow() int {
	if ep.countRecv {
		return ep.n.cfg.RecvWindowBytes
	}
	w := ep.n.cfg.RecvWindowBytes - len(ep.rcvBuf)
	if w < 0 {
		w = 0
	}
	return w
}

// receive processes one arriving segment: ACK side first, then data.
func (ep *endpoint) receive(seg segment) {
	if ep.err != nil {
		return
	}
	if ep.peer == nil && seg.src != nil {
		ep.peer = seg.src
	}
	ep.onAck(seg.ack, seg.wnd)
	if seg.end > seg.seq || seg.probe {
		ep.onData(seg)
	}
}

// onData handles the sequence-consuming side of a segment and always
// answers with an ACK (new data, duplicate, out of order and probes
// alike — duplicate ACKs are the loss signal).
func (ep *endpoint) onData(seg segment) {
	switch {
	case seg.end <= ep.rcvNxt || seg.end == seg.seq:
		// Old retransmission, or a window probe: just re-ACK.
	case seg.seq <= ep.rcvNxt:
		ep.absorb(seg)
		for len(ep.ooo) > 0 && ep.ooo[0].seq <= ep.rcvNxt {
			s := ep.ooo[0]
			ep.ooo = ep.ooo[1:]
			if s.end > ep.rcvNxt {
				ep.absorb(s)
			}
		}
	default:
		ep.insertOOO(seg)
	}
	ep.emit(segment{seq: ep.nxt, end: ep.nxt})
}

// absorb advances rcvNxt over a segment that starts at or before it,
// delivering the unseen payload bytes.
func (ep *endpoint) absorb(seg segment) {
	dataStart, dataEnd := seg.seq, seg.end
	if seg.syn {
		dataStart++
	}
	if seg.fin {
		dataEnd--
		ep.peerFin = true
	}
	if seg.payload != nil && !ep.countRecv && dataEnd > dataStart {
		from := ep.rcvNxt
		if from < dataStart {
			from = dataStart
		}
		if from < dataEnd {
			ep.rcvBuf = append(ep.rcvBuf, seg.payload[from-dataStart:dataEnd-dataStart]...)
		}
	}
	ep.rcvNxt = seg.end
}

// insertOOO stores a segment beyond rcvNxt in the sorted out-of-order
// queue, ignoring spans already buffered.
func (ep *endpoint) insertOOO(seg segment) {
	i := 0
	for i < len(ep.ooo) && ep.ooo[i].seq < seg.seq {
		i++
	}
	if i < len(ep.ooo) && ep.ooo[i].seq == seg.seq {
		return // duplicate of a buffered segment
	}
	if i > 0 && ep.ooo[i-1].end > seg.seq {
		return // overlaps the previous buffered span; keep the original
	}
	if i < len(ep.ooo) && seg.end > ep.ooo[i].seq {
		return // overlaps the next buffered span
	}
	ep.stats.OutOfOrder++
	ep.ooo = append(ep.ooo, segment{})
	copy(ep.ooo[i+1:], ep.ooo[i:])
	ep.ooo[i] = seg
	ep.n.cond.Broadcast()
}

// onEstablished marks the connection live and, on the server side,
// surfaces it on the listener's accept queue.
func (ep *endpoint) onEstablished() {
	ep.established = true
	if ep.listener != nil {
		ep.listener.pending = append(ep.listener.pending, ep)
		ep.listener = nil
	}
	ep.pump()
}

// sendFIN enqueues the FIN virtual byte and pushes it out.
func (ep *endpoint) sendFIN() {
	if ep.closing {
		return
	}
	ep.closing = true
	ep.pump()
}

// finDelivered reports whether every byte including the FIN was ACKed.
func (ep *endpoint) finDelivered() bool {
	return ep.closing && ep.una == ep.availEnd()
}
