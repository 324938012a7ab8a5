package experiments

import (
	"fmt"

	"pathsel/internal/bgp"
	"pathsel/internal/core"
	"pathsel/internal/forward"
	"pathsel/internal/igp"
	"pathsel/internal/measure"
	"pathsel/internal/netsim"
	"pathsel/internal/probe"
	"pathsel/internal/topology"
)

// CauseVariant names one mechanism toggled off in the cause ablation.
type CauseVariant struct {
	Name string
	// mutateTop disables a topology-level mechanism.
	mutateTop func(*topology.Config)
	// mutateNet disables a congestion-model mechanism.
	mutateNet func(*netsim.Config)
	// egress overrides the egress policy (empty = hot potato).
	egress forward.EgressPolicy
}

// CauseResult is the headline effect under one variant.
type CauseResult struct {
	Variant string
	// BetterFraction is the share of pairs with a superior RTT
	// alternate.
	BetterFraction float64
	// MedianImprovement is the median of the improvement CDF (ms).
	MedianImprovement float64
	// MeanDefaultRTT is the mean default-path RTT (ms).
	MeanDefaultRTT float64
}

// CauseAblation decomposes the alternate-path phenomenon by switching
// off one modeled mechanism at a time and re-running a compact UW3-style
// campaign: geographically arbitrary providers, contract-driven policy
// bias, exchange-point congestion, diurnal load, and hot-potato egress.
// The paper could only hypothesize about these causes (Sections 3 and
// 7); the simulator can delete them.
func CauseAblation(cfg Config) ([]CauseResult, error) {
	variants := []CauseVariant{
		{Name: "baseline"},
		{Name: "no-remote-providers", mutateTop: func(c *topology.Config) { c.RemoteProviderProb = 0 }},
		{Name: "no-policy-bias", mutateTop: func(c *topology.Config) { c.PolicyBiasProb = 0 }},
		{Name: "no-exchange-congestion", mutateNet: func(c *netsim.Config) {
			c.ExchangeBump = 0
			c.ExchangeNoiseAmp = 0
		}},
		// Flattening the diurnal curve pins every link at its peak-hour
		// load around the clock (there is no single "average load" knob),
		// so the variant name says what it does.
		{Name: "constant-peak-load", mutateNet: func(c *netsim.Config) {
			c.NightFloor = 1
			c.WeekendFactor = 1
		}},
		{Name: "cold-potato-egress", egress: forward.ColdPotato},
	}

	var out []CauseResult
	for _, v := range variants {
		res, err := runCauseVariant(cfg, v)
		if err != nil {
			return nil, fmt.Errorf("experiments: variant %s: %w", v.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func runCauseVariant(cfg Config, v CauseVariant) (CauseResult, error) {
	topCfg := topology.DefaultConfig(topology.Era1999)
	topCfg.Seed = cfg.Seed
	topCfg.NumHosts = 14
	if v.mutateTop != nil {
		v.mutateTop(&topCfg)
	}
	top, err := topology.Generate(topCfg)
	if err != nil {
		return CauseResult{}, err
	}
	g := igp.New(top, igp.DefaultConfig())
	table, err := bgp.Compute(top)
	if err != nil {
		return CauseResult{}, err
	}
	fwd := forward.NewWithEgress(top, g, table, v.egress)

	netCfg := netsim.ConfigFor(topology.Era1999)
	netCfg.Seed = cfg.Seed + 11
	if v.mutateNet != nil {
		v.mutateNet(&netCfg)
	}
	if err := netCfg.Validate(); err != nil {
		return CauseResult{}, err
	}
	net := netsim.New(top, netCfg)
	prbCfg := probe.DefaultConfig()
	prbCfg.Seed = cfg.Seed + 21
	prb := probe.New(top, fwd, net, prbCfg)

	var hosts []topology.HostID
	for _, h := range top.Hosts {
		hosts = append(hosts, h.ID)
	}
	ds, err := measure.Run(top, prb, measure.Spec{
		Name:            "cause-" + v.Name,
		Hosts:           hosts,
		Method:          measure.MethodTraceroute,
		Scheduler:       measure.ExponentialPairs,
		MeanIntervalSec: 55,
		DurationSec:     3 * 86400,
		RateLimit:       measure.FilterHosts,
		MinMeasurements: 20,
		Seed:            cfg.Seed + 31,
	})
	if err != nil {
		return CauseResult{}, err
	}
	rs, err := core.NewAnalyzer(ds).WithConcurrency(cfg.Concurrency).Query(core.QuerySpec{Metric: core.MetricRTT})
	if err != nil {
		return CauseResult{}, err
	}
	results := rs.Rows
	if len(results) == 0 {
		return CauseResult{}, fmt.Errorf("no comparable pairs")
	}
	cdf := core.ImprovementCDF(results)
	med, err := cdf.Quantile(0.5)
	if err != nil {
		return CauseResult{}, err
	}
	meanDef := 0.0
	for _, r := range results {
		meanDef += r.DefaultValue
	}
	return CauseResult{
		Variant:           v.Name,
		BetterFraction:    cdf.FractionAbove(0),
		MedianImprovement: med,
		MeanDefaultRTT:    meanDef / float64(len(results)),
	}, nil
}

// SeedSensitivity re-runs the headline analysis (UW3-style campaign,
// mean-RTT alternates) across independent seeds — a robustness check the
// paper could not perform on the one Internet it had. Returns the
// better-alternate fraction per seed.
func SeedSensitivity(baseSeed int64, seeds int) ([]float64, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("experiments: need at least 1 seed")
	}
	var out []float64
	for i := 0; i < seeds; i++ {
		res, err := runCauseVariant(Config{Seed: baseSeed + int64(i)*1000}, CauseVariant{Name: "baseline"})
		if err != nil {
			return nil, fmt.Errorf("experiments: seed %d: %w", i, err)
		}
		out = append(out, res.BetterFraction)
	}
	return out, nil
}
