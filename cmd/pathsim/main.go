// Command pathsim generates a synthetic Internet and runs a measurement
// campaign over it, saving the resulting dataset as a one-section
// snapshot file for later analysis with the altpath tool.
//
// Usage:
//
//	pathsim [-era 1995|1999] [-region na|world] [-hosts N] [-seed N]
//	        [-days D] [-mean SECONDS] [-scheduler pairs|perserver|episodes]
//	        [-method traceroute|transfer] [-minmeas N] [-trace FILE]
//	        -o dataset.snap
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"pathsel/internal/bgp"
	"pathsel/internal/dataset"
	"pathsel/internal/forward"
	"pathsel/internal/geo"
	"pathsel/internal/igp"
	"pathsel/internal/measure"
	"pathsel/internal/netsim"
	"pathsel/internal/probe"
	"pathsel/internal/snapshot"
	"pathsel/internal/topology"
	"pathsel/internal/trace"
)

func main() {
	era := flag.String("era", "1999", "infrastructure era: 1995 or 1999")
	region := flag.String("region", "na", "host region: na or world")
	hosts := flag.Int("hosts", 20, "number of measurement hosts")
	seed := flag.Int64("seed", 1, "master seed")
	days := flag.Float64("days", 7, "campaign duration in days")
	mean := flag.Float64("mean", 60, "mean scheduling interval in seconds")
	scheduler := flag.String("scheduler", "pairs", "scheduler: pairs, perserver or episodes")
	method := flag.String("method", "traceroute", "instrument: traceroute or transfer")
	minMeas := flag.Int("minmeas", dataset.MinMeasurementsPerPath,
		"drop paths with fewer measurements (0 disables; the paper uses 30)")
	out := flag.String("o", "dataset.snap", "output dataset file")
	traceFile := flag.String("trace", "", "also write textual traceroute records to this file")
	flag.Parse()

	if err := run(*era, *region, *hosts, *seed, *days, *mean, *scheduler, *method, *minMeas, *out, *traceFile); err != nil {
		fmt.Fprintln(os.Stderr, "pathsim:", err)
		os.Exit(1)
	}
}

func run(eraStr, regionStr string, hosts int, seed int64, days, mean float64,
	schedStr, methodStr string, minMeas int, out, traceFile string) error {
	var era topology.Era
	switch eraStr {
	case "1995":
		era = topology.Era1995
	case "1999":
		era = topology.Era1999
	default:
		return fmt.Errorf("unknown era %q", eraStr)
	}
	cfg := topology.DefaultConfig(era)
	cfg.Seed = seed
	cfg.NumHosts = hosts
	switch regionStr {
	case "na":
		cfg.Region = geo.NorthAmerica
	case "world":
		cfg.Region = geo.World
	default:
		return fmt.Errorf("unknown region %q", regionStr)
	}

	fmt.Println("generating topology...")
	top, err := topology.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Println(" ", top.Stats())

	fmt.Println("computing routes...")
	g := igp.New(top, igp.DefaultConfig())
	table, err := bgp.Compute(top)
	if err != nil {
		return err
	}
	fwd := forward.New(top, g, table)

	netCfg := netsim.ConfigFor(era)
	netCfg.Seed = seed + 101
	net := netsim.New(top, netCfg)
	prbCfg := probe.DefaultConfig()
	prbCfg.Seed = seed + 201
	prb := probe.New(top, fwd, net, prbCfg)

	spec := measure.Spec{
		// The name heads altpath's report and must fit a snapshot
		// section name, 16 bytes.
		Name:            fmt.Sprintf("sim-%s-%s", eraStr, regionStr),
		MeanIntervalSec: mean,
		DurationSec:     days * 86400,
		RateLimit:       measure.FilterHosts,
		MinMeasurements: minMeas,
		Seed:            seed + 301,
	}
	for _, h := range top.Hosts {
		spec.Hosts = append(spec.Hosts, h.ID)
	}
	switch schedStr {
	case "pairs":
		spec.Scheduler = measure.ExponentialPairs
	case "perserver":
		spec.Scheduler = measure.PerServerUniform
	case "episodes":
		spec.Scheduler = measure.Episodes
		spec.MinMeasurements = 0
	default:
		return fmt.Errorf("unknown scheduler %q", schedStr)
	}
	switch methodStr {
	case "traceroute":
		spec.Method = measure.MethodTraceroute
	case "transfer":
		spec.Method = measure.MethodTransfer
		spec.MinMeasurements = 0
	default:
		return fmt.Errorf("unknown method %q", methodStr)
	}

	var (
		tf       *os.File
		tw       *bufio.Writer
		traceErr error // the first trace write error
	)
	if traceFile != "" {
		if tf, err = os.Create(traceFile); err != nil {
			return err
		}
		defer tf.Close() // on error paths; the success path checks Close
		tw = bufio.NewWriter(tf)
		spec.Observer = func(res probe.Result) {
			if traceErr == nil {
				traceErr = trace.Write(tw, top, net, res)
			}
		}
	}

	fmt.Printf("running %s campaign: %.1f days, mean interval %.0fs...\n", methodStr, days, mean)
	ds, err := measure.Run(top, prb, spec)
	if err != nil {
		return err
	}
	if tw != nil {
		if traceErr == nil {
			traceErr = tw.Flush()
		}
		if err := tf.Close(); traceErr == nil {
			traceErr = err
		}
		if traceErr != nil {
			return fmt.Errorf("trace %s: %w", traceFile, traceErr)
		}
	}
	c := ds.Characteristics()
	fmt.Printf("  %d hosts, %d measurements, %.0f%% of paths covered\n",
		c.Hosts, c.Measurements, c.PercentCovered)
	if len(ds.Paths) == 0 && spec.MinMeasurements > 0 {
		pairs := float64(len(spec.Hosts) * (len(spec.Hosts) - 1))
		perPair := days * 86400 / mean / pairs
		fmt.Printf("  warning: every path fell below -minmeas %d (~%.0f measurements per pair);\n"+
			"  lengthen -days, shrink -mean, or lower -minmeas\n", spec.MinMeasurements, perPair)
	}

	if err := snapshot.WriteDataset(out, ds); err != nil {
		return err
	}
	fmt.Println("saved", out)
	return nil
}
