// Packetlevel: unmodified net.Conn protocol code over the simulated
// Internet.
//
// The packet-level data plane (internal/packetnet) exposes the suite's
// synthetic topology through a drop-in dial/listen sockets API: Dial
// and Listen return real net.Conn/net.Listener values whose bytes ride
// TCP Reno segments across the same links, queues, and background load
// the measurement campaigns sample. This example runs two ordinary
// protocol loops against it — a line echo and a bulk transfer — then
// compares the observed goodput with the Mathis prediction for the
// same path state.
//
// Run with: go run ./examples/packetlevel
package main

import (
	"fmt"
	"io"
	"log"
	"net"

	"pathsel/internal/experiments"
	"pathsel/internal/forward"
	"pathsel/internal/packetnet"
	"pathsel/internal/tcpmodel"
)

func main() {
	fmt.Println("building the measurement suite (quick preset)...")
	s, err := experiments.Build(experiments.Config{Seed: 1, Preset: experiments.Quick})
	if err != nil {
		log.Fatal(err)
	}
	fwd, ns := s.D2Forwarding()

	cfg := packetnet.DefaultConfig()
	cfg.Seed = 1
	n, err := packetnet.New(s.TopoD2, ns, forward.NewCache(fwd), cfg)
	if err != nil {
		log.Fatal(err)
	}
	src := s.TopoD2.Hosts[0].ID
	dst := s.TopoD2.Hosts[1].ID

	// An echo server: note it is written against net.Listener/net.Conn
	// only — nothing in it knows the network is simulated.
	ln, err := n.Listen(dst, 7)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}(c)
		}
	}()

	c, err := n.Dial(src, dst, 7)
	if err != nil {
		log.Fatal(err)
	}
	msg := []byte("hello through the synthetic Internet\n")
	if _, err := c.Write(msg); err != nil {
		log.Fatal(err)
	}
	back := make([]byte, len(msg))
	if _, err := io.ReadFull(c, back); err != nil {
		log.Fatal(err)
	}
	c.Close()
	fmt.Printf("echo over host %d -> host %d: %q (sim clock now %.3fs)\n",
		src, dst, string(back), float64(n.Now()))

	// A bulk transfer on the same plane, against a fresh network so the
	// clock starts at zero.
	n2, err := packetnet.New(s.TopoD2, ns, forward.NewCache(fwd), cfg)
	if err != nil {
		log.Fatal(err)
	}
	const dur = 30.0
	st, err := n2.Transfer(src, dst, 0, dur)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbulk transfer, %gs: %d bytes delivered, %.1f KB/s goodput, srtt %.0f ms\n",
		dur, st.Delivered, st.GoodputKBs, st.SRTTMs)
	fmt.Printf("sender sent %d segments: %d retransmits (%d fast, %d timeouts)\n",
		st.Sender.SegmentsSent, st.Sender.Retransmits,
		st.Sender.FastRetransmits, st.Sender.Timeouts)
	fmt.Printf("data plane: %d packets, %d queue drops, %d random losses\n",
		st.Net.PacketsSent, st.Net.QueueDrops, st.Net.RandomLosses)

	// What does the closed-form model expect for this path right now?
	path, err := fwd.HostPath(src, dst)
	if err != nil {
		log.Fatal(err)
	}
	rev, err := fwd.HostPath(dst, src)
	if err != nil {
		log.Fatal(err)
	}
	fs, rs, err := ns.EvalRoundTrip(src, dst, path.Links, rev.Links, 0)
	if err != nil {
		log.Fatal(err)
	}
	rtt := fs.DelayMs + rs.DelayMs
	loss := 1 - (1-fs.LossProb)*(1-rs.LossProb)
	pred, err := tcpmodel.Default().BandwidthKBs(rtt, loss)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npath state at t=0: rtt %.0f ms, two-way loss %.3f\n", rtt, loss)
	fmt.Printf("Mathis prediction %.1f KB/s vs packet-level %.1f KB/s (ratio %.2f)\n",
		pred, st.GoodputKBs, st.GoodputKBs/pred)

	fmt.Println("\nreading: the sockets API lets protocol code written for the real")
	fmt.Println("net package run unchanged on the simulated Internet, and its")
	fmt.Println("goodput lands where the analytic model says it should.")
}
