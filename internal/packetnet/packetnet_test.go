package packetnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"pathsel/internal/bgp"
	"pathsel/internal/forward"
	"pathsel/internal/igp"
	"pathsel/internal/netsim"
	"pathsel/internal/topology"
)

// fixture bundles one generated internet and its routing planes.
type fixture struct {
	top *topology.Topology
	ns  *netsim.Network
	fwd *forward.Forwarder
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

// sharedFixture builds one Era1999 topology per test binary; Networks
// are cheap, so each test creates its own over the shared substrate.
func sharedFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		cfg := topology.DefaultConfig(topology.Era1999)
		cfg.Seed = 7
		top, err := topology.Generate(cfg)
		if err != nil {
			fixErr = err
			return
		}
		g := igp.New(top, igp.DefaultConfig())
		table, err := bgp.Compute(top)
		if err != nil {
			fixErr = err
			return
		}
		nsCfg := netsim.DefaultConfig()
		nsCfg.Seed = 7
		fix = &fixture{top: top, ns: netsim.New(top, nsCfg), fwd: forward.New(top, g, table)}
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

// newNet builds a Network over the shared substrate. Each Network gets
// its own forward.Cache (the cache is not safe for concurrent use).
func newNet(t testing.TB, cfg Config) *Network {
	t.Helper()
	fx := sharedFixture(t)
	n, err := New(fx.top, fx.ns, forward.NewCache(fx.fwd), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

// pairHosts returns two distinct hosts from the shared fixture.
func pairHosts(t testing.TB, i, j int) (topology.HostID, topology.HostID) {
	t.Helper()
	fx := sharedFixture(t)
	hosts := fx.top.Hosts
	if len(hosts) < 2 {
		t.Fatal("fixture has fewer than two hosts")
	}
	return hosts[i%len(hosts)].ID, hosts[j%len(hosts)].ID
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.MSSBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero MSS accepted")
	}
	bad = DefaultConfig()
	bad.ExtraLossProb = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("loss probability above 1 accepted")
	}
	bad = DefaultConfig()
	bad.FixedUtilization = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("FixedUtilization of 1 accepted")
	}
}

func TestTransferDeliversBytes(t *testing.T) {
	n := newNet(t, DefaultConfig())
	src, dst := pairHosts(t, 0, 1)
	st, err := n.Transfer(src, dst, 0, 10)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if st.Delivered <= 0 {
		t.Fatalf("no bytes delivered: %+v", st)
	}
	if st.GoodputKBs <= 0 {
		t.Fatalf("non-positive goodput: %+v", st)
	}
	if st.SRTTMs <= 0 {
		t.Fatalf("no RTT estimate: %+v", st)
	}
	if st.Net.PacketsSent <= 0 {
		t.Fatalf("no packets on the wire: %+v", st)
	}
	t.Logf("transfer: %d bytes, %.1f KB/s, srtt %.1f ms, %d segments (%d retx, %d timeouts, %d fastrtx), %d queue drops, %d random losses",
		st.Delivered, st.GoodputKBs, st.SRTTMs, st.Sender.SegmentsSent,
		st.Sender.Retransmits, st.Sender.Timeouts, st.Sender.FastRetransmits,
		st.Net.QueueDrops, st.Net.RandomLosses)
}

func TestTransferDeterministicAcrossRuns(t *testing.T) {
	src, dst := pairHosts(t, 0, 1)
	run := func() TransferStats {
		n := newNet(t, DefaultConfig())
		st, err := n.Transfer(src, dst, 100, 15)
		if err != nil {
			t.Fatalf("Transfer: %v", err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed transfers differ:\n%+v\n%+v", a, b)
	}
}

func TestTransferSeedSensitivity(t *testing.T) {
	src, dst := pairHosts(t, 0, 1)
	cfg := DefaultConfig()
	cfg.ExtraLossProb = 0.02 // make the seed-driven loss draws matter
	run := func(seed int64) TransferStats {
		c := cfg
		c.Seed = seed
		n := newNet(t, c)
		st, err := n.Transfer(src, dst, 0, 15)
		if err != nil {
			t.Fatalf("Transfer: %v", err)
		}
		return st
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical transfer statistics")
	}
}

func TestTransferStartBeforeNowRejected(t *testing.T) {
	n := newNet(t, DefaultConfig())
	src, dst := pairHosts(t, 0, 1)
	if _, err := n.Transfer(src, dst, 50, 5); err != nil {
		t.Fatalf("first transfer: %v", err)
	}
	if _, err := n.Transfer(src, dst, 10, 5); err == nil {
		t.Fatal("transfer starting in the past accepted")
	}
}

// TestEchoOverConn runs an unmodified echo server and client over the
// dial/listen API: net.Conn code with no knowledge of the simulation.
func TestEchoOverConn(t *testing.T) {
	n := newNet(t, DefaultConfig())
	srvHost, cliHost := pairHosts(t, 0, 1)
	l, err := n.Listen(srvHost, 80)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c) // the standard echo loop
	}()

	c, err := n.Dial(cliHost, srvHost, 80)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	msg := []byte("hello over the simulated internet")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q != %q", got, msg)
	}
	if n.Now() <= 0 {
		t.Fatal("simulated clock did not advance")
	}
}

// TestEchoCloseThenAccept runs the echo exchange to its end, as an
// accept loop does: both sides close, and the listener's next Accept
// drives the FIN handshake to completion. Acknowledging a FIN's
// sequence byte must not touch the send buffer, which holds data bytes
// only.
func TestEchoCloseThenAccept(t *testing.T) {
	n := newNet(t, DefaultConfig())
	srvHost, cliHost := pairHosts(t, 0, 1)
	l, err := n.Listen(srvHost, 7)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	served := make(chan error, 1)
	var srv net.Conn
	go func() {
		c, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		srv = c
		_, err = io.Copy(c, c)
		c.Close()
		served <- err
	}()

	c, err := n.Dial(cliHost, srvHost, 7)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	msg := []byte("echo, then close")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := io.ReadFull(c, make([]byte, len(msg))); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	c.Close()
	if err := <-served; err != nil {
		t.Fatalf("echo server: %v", err)
	}

	accepted := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		accepted <- err
	}()
	// Accept is the only driver left: wait for it to run the event
	// queue dry, then release it.
	for {
		n.mu.Lock()
		idle := len(n.q) == 0
		n.mu.Unlock()
		if idle {
			break
		}
		runtime.Gosched()
	}
	l.Close()
	if err := <-accepted; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after Close: %v, want net.ErrClosed", err)
	}
	for name, ep := range map[string]*endpoint{"client": c.(*Conn).ep, "server": srv.(*Conn).ep} {
		if !ep.finDelivered() || len(ep.sndBuf) != 0 {
			t.Errorf("%s: FIN delivered %v, %d bytes left in the send buffer", name, ep.finDelivered(), len(ep.sndBuf))
		}
	}
}

// TestBulkStreamIntegrity pushes a patterned stream through a
// connection under packet loss and verifies every byte arrives intact
// and in order.
func TestBulkStreamIntegrity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExtraLossProb = 0.02
	n := newNet(t, cfg)
	srvHost, cliHost := pairHosts(t, 2, 3)
	l, err := n.Listen(srvHost, 9000)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	const total = 512 << 10
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i*7 + i>>8)
	}

	errc := make(chan error, 1)
	go func() {
		c, err := n.Dial(cliHost, srvHost, 9000)
		if err != nil {
			errc <- err
			return
		}
		_, err = c.Write(payload)
		c.Close()
		errc <- err
	}()

	sc, err := l.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	got, err := io.ReadAll(sc)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream corrupted: got %d bytes, want %d (content match: %v)",
			len(got), len(payload), bytes.Equal(got, payload))
	}
}

func TestDialRefusedWithoutListener(t *testing.T) {
	n := newNet(t, DefaultConfig())
	src, dst := pairHosts(t, 0, 1)
	if _, err := n.Dial(src, dst, 4444); err == nil {
		t.Fatal("dial to unbound port succeeded")
	}
}

func TestReadDeadline(t *testing.T) {
	n := newNet(t, DefaultConfig())
	srvHost, cliHost := pairHosts(t, 0, 1)
	l, err := n.Listen(srvHost, 7)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			defer c.Close()
			io.Copy(io.Discard, c) // never writes back
		}
	}()
	c, err := n.Dial(cliHost, srvHost, 7)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	// One simulated second past "now".
	if err := c.SetReadDeadline(n.WallClock().Add(1e9)); err != nil {
		t.Fatalf("SetReadDeadline: %v", err)
	}
	_, err = c.Read(make([]byte, 1))
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("Read past deadline returned %v, want a timeout", err)
	}
}

// TestReorderingAcrossPathChange swaps the forwarding path mid-transfer
// and checks that the receiver observes out-of-order segments while the
// stream still completes correctly.
func TestReorderingAcrossPathChange(t *testing.T) {
	fx := sharedFixture(t)
	g := igp.New(fx.top, igp.DefaultConfig())
	table := mustTable(t, fx.top)

	// Find a host pair with two paths of meaningfully different
	// propagation delay: switching from the slow one to the fast one
	// mid-flight makes late packets overtake earlier ones.
	// A sender's access uplink spaces back-to-back packets by roughly
	// one transmission time, so overtaking needs the path-delay gap to
	// exceed that spacing by a healthy margin.
	var src, dst topology.HostID
	var direct, detour forward.Path
	bestDiff := 0.0
	base := forward.NewCache(fx.fwd)
	for i := 0; i < len(fx.top.Hosts); i++ {
		for j := i + 1; j < len(fx.top.Hosts); j++ {
			a, b := fx.top.Hosts[i].ID, fx.top.Hosts[j].ID
			p, err := base.PathAt(a, b, 0)
			if err != nil || len(p.Links) == 0 {
				continue
			}
			for _, lid := range p.Links {
				f2 := forward.NewWithExclusions(fx.top, g, table, map[topology.LinkID]bool{lid: true})
				alt, err := f2.HostPath(a, b)
				if err != nil {
					continue
				}
				d := alt.PropDelayMs(fx.top) - p.PropDelayMs(fx.top)
				if d < 0 {
					d = -d
				}
				if d > bestDiff {
					bestDiff = d
					src, dst, direct, detour = a, b, p, alt
				}
			}
		}
	}
	if bestDiff < 20 {
		t.Skipf("largest detour delay gap is %.1f ms; too small to force overtaking", bestDiff)
	}
	t.Logf("pair host%d->host%d: direct %.1f ms vs detour %.1f ms propagation",
		src, dst, direct.PropDelayMs(fx.top), detour.PropDelayMs(fx.top))

	longFirst, shortSecond := direct, detour
	if detour.PropDelayMs(fx.top) > direct.PropDelayMs(fx.top) {
		longFirst, shortSecond = detour, direct
	}
	const switchAt = netsim.Time(4)
	pp := &switchingProvider{before: longFirst, after: shortSecond, at: switchAt}

	cfg := DefaultConfig()
	cfg.FixedUtilization = 0.3 // quiet background so reordering is from the switch
	// An ack-clocked, window-limited flow cannot reorder across a path
	// switch — by the time an ack returns, everything sent earlier has
	// arrived. Open the window far beyond the bandwidth-delay product
	// so a standing uplink backlog forms and packets straddle the
	// switch back-to-back.
	cfg.MaxWindow = 400
	cfg.InitialSSThresh = 400
	cfg.QueuePackets = 256
	cfg.RecvWindowBytes = 1 << 20 // keep flow control out of the way
	n, err := New(fx.top, fx.ns, pp, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := n.Transfer(src, dst, 0, 8)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if st.Receiver.OutOfOrder == 0 {
		t.Fatalf("no out-of-order arrivals across a path change: %+v", st)
	}
	if st.Delivered <= 0 {
		t.Fatalf("stream did not progress: %+v", st)
	}
}

func mustTable(t *testing.T, top *topology.Topology) *bgp.Table {
	t.Helper()
	table, err := bgp.Compute(top)
	if err != nil {
		t.Fatalf("bgp.Compute: %v", err)
	}
	return table
}

// switchingProvider serves one fixed path before the switch time and
// another after it.
type switchingProvider struct {
	before, after forward.Path
	at            netsim.Time
}

func (s *switchingProvider) PathAt(_, _ topology.HostID, t netsim.Time) (forward.Path, error) {
	if t < s.at {
		return s.before, nil
	}
	return s.after, nil
}
