package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"pathsel/internal/bgp"
	"pathsel/internal/core"
	"pathsel/internal/experiments"
	"pathsel/internal/geo"
	"pathsel/internal/igp"
	"pathsel/internal/netsim"
	"pathsel/internal/snapshot"
	"pathsel/internal/topology"
)

// orZero maps the NaN of an empty sample to 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// timeN records n spans named name around fn under parent.
func timeN(tr *tracer, name string, n int, fn func() error) error {
	for i := 0; i < n; i++ {
		sp := tr.start(name, 0, 0)
		err := fn()
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// uwTopology mirrors the 1998-99 North American topology a
// quick-preset suite of the given seed is built on (experiments keeps
// its own helper unexported), for timing the substrate layers alone.
func uwTopology(seed int64) topology.Config {
	c := topology.DefaultConfig(topology.Era1999)
	c.Seed = seed
	c.Region = geo.NorthAmerica
	c.NumHosts = 16 + 14
	c.NumTier1, c.NumTransit, c.NumStub, c.RoutersTier1 = 5, 14, 60, 8
	return c
}

// probeLayers times the calls each layer exposes, on the quick-preset
// suite s (built in
// buildS seconds) and its substrate, recording a span per call, and
// sets the per-layer metrics from the spans. The exhibits are always
// probed here; serving only when the workload's timed section did not
// already trace it.
func probeLayers(ctx context.Context, r *run, tr *tracer, s *experiments.Suite, buildS float64) error {
	topCfg := uwTopology(s.Config.Seed)
	var top *topology.Topology
	err := timeN(tr, "topology.Generate", 3, func() (err error) { top, err = topology.Generate(topCfg); return err })
	if err == nil {
		err = timeN(tr, "igp.New", 3, func() error { igp.New(top, igp.DefaultConfig()); return nil })
	}
	if err == nil {
		err = timeN(tr, "bgp.Compute", 3, func() error { _, err := bgp.Compute(top); return err })
	}
	if err == nil {
		err = timeN(tr, "netsim.New", 3, func() error { netsim.New(top, netsim.ConfigFor(topCfg.Era)); return nil })
	}
	if err != nil {
		return err
	}

	// Per-call probes on the suite's own UW plane: 200 host pairs drawn
	// from UW3 at a weekday peak hour.
	_, prb := s.UWPlane()
	fwd, net := s.UWForwarding()
	hosts := s.UW3.Hosts
	rng := rand.New(rand.NewSource(r.seed))
	at := netsim.Time(2*86400 + 13*3600)
	for i := 0; i < 200; i++ {
		a, b := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if a == b {
			continue
		}
		path, err := fwd.HostPath(a, b)
		if err != nil {
			return fmt.Errorf("forward: %w", err)
		}
		if err := timeN(tr, "netsim.EvalHostPath", 1, func() error { _, err := net.EvalHostPath(a, b, path.Links, at); return err }); err != nil {
			return err
		}
		if err := timeN(tr, "probe.Traceroute", 1, func() error { _, err := prb.Traceroute(a, b, at); return err }); err != nil {
			return err
		}
		if err := timeN(tr, "probe.Transfer", 1, func() error { _, err := prb.Transfer(a, b, at); return err }); err != nil {
			return err
		}
	}

	var data []byte
	if err := timeN(tr, "snapshot.Encode", 3, func() (err error) { data, err = snapshot.Encode(s); return err }); err != nil {
		return err
	}
	if err := timeN(tr, "snapshot.Restore", 3, func() error { _, err := snapshot.Restore(ctx, data, 0); return err }); err != nil {
		return err
	}
	for _, k := range []int{1, 4} {
		spec := core.QuerySpec{Metric: core.MetricRTT, K: k}
		if err := timeN(tr, fmt.Sprintf("core.Query.k%d", k), 3, func() error {
			_, err := core.NewAnalyzer(s.UW3).Query(spec)
			return err
		}); err != nil {
			return err
		}
	}

	measurements := 0
	for _, name := range experiments.DatasetNames() {
		if ds, ok := s.Dataset(name); ok && name != "D2-NA" && name != "N2-NA" {
			measurements += ds.Characteristics().Measurements
		}
	}
	r.set("measure.measurements", "count", float64(measurements))
	r.set("measure.measurements_per_s", "1/s", float64(measurements)/buildS)

	if err := probeExhibits(ctx, r, tr, data); err != nil {
		return err
	}
	if len(tr.durations("shard.Router")) == 0 {
		if err := probeServe(ctx, r, tr); err != nil {
			return err
		}
	}

	us := func(name string) float64 { return 1e3 * median(tr.durations(name)) }
	ms := func(name string) float64 { return median(tr.durations(name)) }
	r.set("netsim.eval_host_path_us", "us", us("netsim.EvalHostPath"))
	r.set("probe.traceroute_us", "us", us("probe.Traceroute"))
	r.set("probe.transfer_us", "us", us("probe.Transfer"))
	r.set("topology.generate_ms", "ms", ms("topology.Generate"))
	r.set("igp.new_ms", "ms", ms("igp.New"))
	r.set("bgp.compute_ms", "ms", ms("bgp.Compute"))
	r.set("netsim.new_ms", "ms", ms("netsim.New"))
	r.set("snapshot.encode_ms", "ms", ms("snapshot.Encode"))
	r.set("snapshot.restore_ms", "ms", ms("snapshot.Restore"))
	r.set("core.query_k1_ms", "ms", ms("core.Query.k1"))
	r.set("core.query_k4_ms", "ms", ms("core.Query.k4"))
	for _, ex := range catalogue {
		r.set("experiments."+ex.id+"_ms", "ms", ms("experiments."+ex.id))
	}
	return nil
}

// probeExhibits runs the catalogue twice, each time on an independent
// restore of the snapshot data, and checks that both passes produce the
// same output digest; each pass counts as one operation.
func probeExhibits(ctx context.Context, r *run, tr *tracer, data []byte) error {
	var digest string
	for pass := 0; pass < 2; pass++ {
		restored, err := snapshot.Restore(ctx, data, 0)
		if err != nil {
			return err
		}
		p, err := runCatalogue(restored, tr, 0)
		if err == nil && pass > 0 && p.digest != digest {
			err = fmt.Errorf("exhibits: pass digest %.12s differs from the first pass's %.12s", p.digest, digest)
		}
		r.record(err)
		if err != nil {
			return err
		}
		digest = p.digest
		r.set("experiments.paper_ms", "ms", p.paperMs)
		r.set("experiments.extensions_ms", "ms", p.extMs)
	}
	return nil
}

// probeServe runs a one-suite stack, built in set-up so that every
// request is a cache hit, for two seconds, for workloads whose timed
// section sends no request.
func probeServe(ctx context.Context, r *run, tr *tracer) error {
	w := &serveWorkload{prof: serveProfile{Seeds: []int64{1}, ZipfS: 1.6, Lo: 100, Hi: 200, LimitMs: 50, Capacity: 400}, repeats: 1}
	defer w.close()
	if _, err := w.setup(ctx, r); err != nil {
		return err
	}
	m, err := w.measure(ctx, r, tr, 2*time.Second)
	if err != nil {
		return err
	}
	for k, v := range m.layer {
		r.set(k, v.Unit, v.Value)
	}
	return w.workerProbe(ctx, r, tr)
}
