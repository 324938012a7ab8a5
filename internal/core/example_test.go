package core_test

import (
	"fmt"
	"log"
	"math/rand"

	"pathsel/internal/bgp"
	"pathsel/internal/core"
	"pathsel/internal/dataset"
	"pathsel/internal/forward"
	"pathsel/internal/geo"
	"pathsel/internal/igp"
	"pathsel/internal/measure"
	"pathsel/internal/netsim"
	"pathsel/internal/probe"
	"pathsel/internal/tcpmodel"
	"pathsel/internal/tcpsim"
	"pathsel/internal/topology"
)

// Build a synthetic Internet, measure it the way the paper did, and ask
// the paper's question: is there an alternate path through another host
// that beats the default route?
func ExampleAnalyzer_Query() {
	// 1. Generate a late-90s Internet: tier-1 backbones, regional
	//    transit providers, stub edge networks, and measurement hosts.
	topCfg := topology.DefaultConfig(topology.Era1999)
	topCfg.NumHosts = 12
	top, err := topology.Generate(topCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("topology:", top.Stats())

	// 2. Converge routing: intra-AS shortest paths plus BGP-style
	//    policy routing (customer > peer > provider, valley-free
	//    export, hot-potato egress).
	g := igp.New(top, igp.DefaultConfig())
	table, err := bgp.Compute(top)
	if err != nil {
		log.Fatal(err)
	}
	fwd := forward.New(top, g, table)

	// 3. Put dynamic load on the network and create a prober.
	net := netsim.New(top, netsim.ConfigFor(topology.Era1999))
	prb := probe.New(top, fwd, net, probe.DefaultConfig())

	// 4. Run a two-day measurement campaign: random host pairs,
	//    exponentially spaced traceroutes, as in the paper's UW3.
	var hosts []topology.HostID
	for _, h := range top.Hosts {
		hosts = append(hosts, h.ID)
	}
	ds, err := measure.Run(top, prb, measure.Spec{
		Name:            "quickstart",
		Hosts:           hosts,
		Method:          measure.MethodTraceroute,
		Scheduler:       measure.ExponentialPairs,
		MeanIntervalSec: 45,
		DurationSec:     2 * 86400,
		RateLimit:       measure.FilterHosts,
		MinMeasurements: dataset.MinMeasurementsPerPath,
		Seed:            7,
	})
	if err != nil {
		log.Fatal(err)
	}
	c := ds.Characteristics()
	fmt.Printf("measured: %d hosts, %d traceroutes, %.0f%% of paths\n",
		c.Hosts, c.Measurements, c.PercentCovered)

	// 5. The paper's question: for each measured pair, is there a
	//    better synthetic alternate path through other hosts? A
	//    single-best query returns one row per pair.
	rs, err := core.NewAnalyzer(ds).Query(core.QuerySpec{Metric: core.MetricRTT})
	if err != nil {
		log.Fatal(err)
	}
	cdf := core.ImprovementCDF(rs.Rows)
	fmt.Printf("\npairs compared: %d\n", cdf.N())
	fmt.Printf("alternate beats default:            %.0f%%\n", 100*cdf.FractionAbove(0))
	fmt.Printf("alternate wins by 20 ms or more:    %.0f%%\n", 100*cdf.FractionAbove(20))

	// Show the single biggest win, with the relay that provides it.
	var best core.PairResult
	for _, r := range rs.Rows {
		if r.Improvement() > best.Improvement() {
			best = r
		}
	}
	fmt.Printf("\nbiggest win: %s -> %s\n", top.Host(best.Key.Src).Name, top.Host(best.Key.Dst).Name)
	fmt.Printf("  default    %.1f ms\n", best.DefaultValue)
	fmt.Printf("  alternate  %.1f ms via", best.AltValue)
	for _, via := range best.Via {
		fmt.Printf(" %s", top.Host(via).Name)
	}
	fmt.Println()
	// Output:
	// topology: 152 ASes (8 tier1, 24 transit, 120 stub), 584 routers, 1752 links (506 inter-AS), 12 hosts, 6 exchanges
	// measured: 8 hosts, 3224 traceroutes, 100% of paths
	//
	// pairs compared: 56
	// alternate beats default:            30%
	// alternate wins by 20 ms or more:    21%
	//
	// biggest win: host06.as114 -> host04.as133
	//   default    462.9 ms
	//   alternate  323.7 ms via host01.as55
}

// The paper's Section 5 bandwidth analysis as a standalone study, with
// a step the paper could not run: after the Mathis model picks the
// best relay for each pair, a simulated TCP Reno flow checks that the
// predicted ranking holds for an actual transfer.
func ExampleAnalyzer_Query_bandwidth() {
	// A 1995 world topology: the N2 era of slow, congested transit.
	topCfg := topology.DefaultConfig(topology.Era1995)
	topCfg.Region = geo.World
	topCfg.NumHosts = 14
	top, err := topology.Generate(topCfg)
	if err != nil {
		log.Fatal(err)
	}
	g := igp.New(top, igp.DefaultConfig())
	table, err := bgp.Compute(top)
	if err != nil {
		log.Fatal(err)
	}
	fwd := forward.New(top, g, table)
	net := netsim.New(top, netsim.ConfigFor(topology.Era1995))
	prb := probe.New(top, fwd, net, probe.DefaultConfig())

	var hosts []topology.HostID
	for _, h := range top.Hosts {
		hosts = append(hosts, h.ID)
	}
	fmt.Println("collecting npd-style TCP transfer measurements (two weeks)...")
	ds, err := measure.Run(top, prb, measure.Spec{
		Name:            "bandwidth",
		Hosts:           hosts,
		Method:          measure.MethodTransfer,
		Scheduler:       measure.ExponentialPairs,
		MeanIntervalSec: 250,
		DurationSec:     14 * 86400,
		Seed:            5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d transfers measured\n\n", ds.Characteristics().Measurements)

	// One single-best query per loss composition.
	model := tcpmodel.Default()
	analyzer := core.NewAnalyzer(ds)
	pessRS, err := analyzer.Query(core.QuerySpec{Bandwidth: &core.BandwidthQuery{Model: model, Mode: core.Pessimistic}})
	if err != nil {
		log.Fatal(err)
	}
	optRS, err := analyzer.Query(core.QuerySpec{Bandwidth: &core.BandwidthQuery{Model: model, Mode: core.Optimistic}})
	if err != nil {
		log.Fatal(err)
	}
	pess, opt := pessRS.Bandwidth, optRS.Bandwidth
	betterP, betterO := 0, 0
	for _, r := range pess {
		if r.Improvement() > 0 {
			betterP++
		}
	}
	for _, r := range opt {
		if r.Improvement() > 0 {
			betterO++
		}
	}
	fmt.Printf("pairs with a better-bandwidth relay (Mathis model):\n")
	fmt.Printf("  pessimistic loss composition: %d of %d (%.0f%%)\n",
		betterP, len(pess), 100*float64(betterP)/float64(len(pess)))
	fmt.Printf("  optimistic loss composition:  %d of %d (%.0f%%)\n",
		betterO, len(opt), 100*float64(betterO)/float64(len(opt)))

	// Take the biggest predicted win and check it with simulated TCP.
	var best core.BandwidthResult
	for _, r := range pess {
		if r.Ratio() > best.Ratio() || best.DefaultKBs == 0 {
			best = r
		}
	}
	defRTT, defLoss, _ := ds.TransferMeans(best.Key)
	leg1RTT, leg1Loss, _ := ds.TransferMeans(dataset.PairKey{Src: best.Key.Src, Dst: best.Via})
	leg2RTT, leg2Loss, _ := ds.TransferMeans(dataset.PairKey{Src: best.Via, Dst: best.Key.Dst})
	relayRTT := leg1RTT.Mean + leg2RTT.Mean
	relayLoss := 1 - (1-leg1Loss.Mean)*(1-leg2Loss.Mean)

	fmt.Printf("\nbiggest predicted win: %v via relay %d (%.1fx by the model)\n",
		best.Key, best.Via, best.Ratio())
	simCfg := tcpsim.DefaultConfig()
	direct, err := tcpsim.Simulate(simCfg, rand.New(rand.NewSource(1)), defRTT.Mean, defLoss.Mean, 300)
	if err != nil {
		log.Fatal(err)
	}
	relayed, err := tcpsim.Simulate(simCfg, rand.New(rand.NewSource(2)), relayRTT, relayLoss, 300)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  simulated TCP, default path: %.1f kB/s (model said %.1f)\n",
		direct.ThroughputKBs, best.DefaultKBs)
	fmt.Printf("  simulated TCP, relay path:   %.1f kB/s (model said %.1f)\n",
		relayed.ThroughputKBs, best.AltKBs)
	if relayed.ThroughputKBs > direct.ThroughputKBs {
		fmt.Println("  -> the relay's advantage survives an actual (simulated) transfer")
	} else {
		fmt.Println("  -> the simulated transfer did not confirm the model's pick")
	}
	// Output:
	// collecting npd-style TCP transfer measurements (two weeks)...
	//   4513 transfers measured
	//
	// pairs with a better-bandwidth relay (Mathis model):
	//   pessimistic loss composition: 85 of 182 (47%)
	//   optimistic loss composition:  111 of 182 (61%)
	//
	// biggest predicted win: 3->2 via relay 5 (3.8x by the model)
	//   simulated TCP, default path: 6.3 kB/s (model said 14.3)
	//   simulated TCP, relay path:   46.7 kB/s (model said 55.0)
	//   -> the relay's advantage survives an actual (simulated) transfer
}
