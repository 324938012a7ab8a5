package experiments

import (
	"context"
	"math/rand"
	"sort"

	"pathsel/internal/fanout"
	"pathsel/internal/forward"
	"pathsel/internal/netsim"
	"pathsel/internal/packetnet"
	"pathsel/internal/tcpmodel"
	"pathsel/internal/tcpsim"
)

// The packet-level validation re-runs the TCP comparison one rung below
// ValidateTCPModel: instead of feeding measured means to a rounds
// model, it runs real TCP Reno segments over the simulated links of the
// Paxson plane — queues, drop-tail losses, ack clocking and all — and
// asks where the closed-form Mathis prediction (and the tcpsim rounds
// model) diverge from packet dynamics, regime by regime.

// pvPeakTime is the transfer window start: Wednesday 13:00 local on
// the simulated calendar, a high-load instant on the netsim diurnal
// curve.
const pvPeakTime = netsim.Time(2*86400 + 13*3600)

// PacketPairResult is the comparison at one N2 pair.
type PacketPairResult struct {
	Pair string
	// RTTMs and Loss are the two-way path state netsim reports at the
	// transfer window — the inputs handed to Mathis and tcpsim, so the
	// three numbers below differ only in modeling depth.
	RTTMs float64
	Loss  float64
	// MeasuredRTTMs/MeasuredLoss are the N2 campaign's transfer means
	// for context (they average over the whole multi-week campaign, not
	// the exhibit's window).
	MeasuredRTTMs float64
	MeasuredLoss  float64

	PacketKBs float64 // packet-level goodput
	MathisKBs float64 // closed-form model
	SimKBs    float64 // tcpsim rounds model

	// Transport counters from the packet-level flow.
	Retransmits int
	Timeouts    int
	FastRetx    int
	OutOfOrder  int
}

// PacketRegime aggregates packet-vs-Mathis divergence over the pairs
// falling in one loss or RTT regime.
type PacketRegime struct {
	Name  string
	Pairs int
	// MedianRatio is the median packet/Mathis goodput ratio in the
	// regime; MedianAbsRelErr the median of |packet-Mathis|/Mathis.
	MedianRatio     float64
	MedianAbsRelErr float64
}

// PacketValidation is the exhibit result.
type PacketValidation struct {
	TotalPairs  int // N2 pairs with transfer measurements
	Pairs       int // pairs actually run (deterministic stride sample)
	DurationSec float64

	Results []PacketPairResult

	// Aggregates over Results: packet-level vs the Mathis model and vs
	// the tcpsim rounds model.
	MedianRatioMathis   float64
	MedianRatioSim      float64
	WithinFactor2Mathis float64
	WithinFactor2Sim    float64
	RankCorrMathis      float64
	RankCorrSim         float64

	// Divergence by operating regime, loss buckets then RTT buckets.
	Regimes []PacketRegime
}

// pvScale bounds the exhibit per preset: how many pairs to run and how
// long each transfer lasts.
func pvScale(p Preset) (maxPairs int, durationSec float64) {
	if p == Quick {
		return 24, 12
	}
	return 96, 30
}

// ValidatePacketLevel runs the packet-level comparison over a
// deterministic sample of N2 pairs. The result is bit-identical for a
// given suite seed at any Concurrency setting: pair i writes only slot
// i, and each pair's packet network is self-contained.
func ValidatePacketLevel(s *Suite) (PacketValidation, error) {
	fwd, ns := s.D2Forwarding()
	model := tcpmodel.Default()
	simCfg := tcpsim.DefaultConfig()

	keys := s.N2.PairKeys()
	type job struct {
		pair  string
		src   forward.Path
		rev   forward.Path
		mRTT  float64
		mLoss float64
	}
	var jobs []job
	for _, k := range keys {
		rtt, loss, ok := s.N2.TransferMeans(k)
		if !ok {
			continue
		}
		fp, err := fwd.HostPath(k.Src, k.Dst)
		if err != nil {
			continue
		}
		rp, err := fwd.HostPath(k.Dst, k.Src)
		if err != nil {
			continue
		}
		jobs = append(jobs, job{
			pair: k.String(), src: fp, rev: rp,
			mRTT: rtt.Mean, mLoss: loss.Mean,
		})
	}
	out := PacketValidation{TotalPairs: len(jobs)}
	maxPairs, duration := pvScale(s.Config.Preset)
	out.DurationSec = duration
	if len(jobs) == 0 {
		return out, nil
	}
	// Stride-sample so the selection spans the whole pair list instead
	// of favouring low host IDs.
	if len(jobs) > maxPairs {
		stride := (len(jobs) + maxPairs - 1) / maxPairs
		var picked []job
		for i := 0; i < len(jobs); i += stride {
			picked = append(picked, jobs[i])
		}
		jobs = picked
	}
	out.Pairs = len(jobs)

	ctx := s.ctx
	if ctx == nil {
		//repolint:allow ctxflow -- a suite without WithContext is the documented never-cancelled case
		ctx = context.Background()
	}
	results := make([]PacketPairResult, len(jobs))
	run := func(_, i int) error {
		j := jobs[i]
		// Model inputs: the two-way netsim path state at the window.
		fs, rs, err := ns.EvalRoundTrip(j.src.Src, j.src.Dst, j.src.Links, j.rev.Links, pvPeakTime)
		if err != nil {
			return err
		}
		rtt := fs.DelayMs + rs.DelayMs
		loss := 1 - (1-fs.LossProb)*(1-rs.LossProb)

		r := PacketPairResult{
			Pair: j.pair, RTTMs: rtt, Loss: loss,
			MeasuredRTTMs: j.mRTT, MeasuredLoss: j.mLoss,
		}
		r.MathisKBs, err = model.BandwidthKBs(rtt, loss)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(s.Config.Seed + 7001*int64(i)))
		sim, err := tcpsim.Simulate(simCfg, rng, rtt, loss, duration)
		if err != nil {
			return err
		}
		r.SimKBs = sim.ThroughputKBs

		// Packet level: a fresh network (and path cache — forward.Cache
		// is single-threaded) per pair keeps slots independent.
		pcfg := packetnet.DefaultConfig()
		pcfg.Seed = s.Config.Seed + 9001*int64(i)
		pn, err := packetnet.New(s.TopoD2, ns, forward.NewCache(fwd), pcfg)
		if err != nil {
			return err
		}
		st, err := pn.Transfer(j.src.Src, j.src.Dst, pvPeakTime, duration)
		if err != nil {
			return err
		}
		r.PacketKBs = st.GoodputKBs
		r.Retransmits = st.Sender.Retransmits
		r.Timeouts = st.Sender.Timeouts
		r.FastRetx = st.Sender.FastRetransmits
		r.OutOfOrder = st.Receiver.OutOfOrder
		results[i] = r
		return nil
	}
	if err := fanout.For(ctx, fanout.Workers(s.Config.Concurrency), len(jobs), run); err != nil {
		return PacketValidation{}, err
	}
	out.Results = results

	packet := make([]float64, len(results))
	mathis := make([]float64, len(results))
	simed := make([]float64, len(results))
	for i, r := range results {
		packet[i], mathis[i], simed[i] = r.PacketKBs, r.MathisKBs, r.SimKBs
	}
	out.MedianRatioMathis, out.WithinFactor2Mathis = ratioStats(packet, mathis)
	out.MedianRatioSim, out.WithinFactor2Sim = ratioStats(packet, simed)
	out.RankCorrMathis = spearman(mathis, packet)
	out.RankCorrSim = spearman(simed, packet)
	out.Regimes = packetRegimes(results)
	return out, nil
}

// ratioStats returns the median a/b ratio and the fraction of pairs
// within a factor of two.
func ratioStats(a, b []float64) (median, within2 float64) {
	ratios := make([]float64, 0, len(a))
	within := 0
	for i := range a {
		if b[i] <= 0 {
			continue
		}
		r := a[i] / b[i]
		ratios = append(ratios, r)
		if r >= 0.5 && r <= 2 {
			within++
		}
	}
	if len(ratios) == 0 {
		return 0, 0
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], float64(within) / float64(len(ratios))
}

// packetRegimes buckets the pairs by loss and by RTT and summarizes
// packet-vs-Mathis divergence in each bucket.
func packetRegimes(results []PacketPairResult) []PacketRegime {
	type bucket struct {
		name string
		in   func(r PacketPairResult) bool
	}
	buckets := []bucket{
		{"loss<1%", func(r PacketPairResult) bool { return r.Loss < 0.01 }},
		{"loss 1-3%", func(r PacketPairResult) bool { return r.Loss >= 0.01 && r.Loss < 0.03 }},
		{"loss>=3%", func(r PacketPairResult) bool { return r.Loss >= 0.03 }},
		{"rtt<150ms", func(r PacketPairResult) bool { return r.RTTMs < 150 }},
		{"rtt 150-300ms", func(r PacketPairResult) bool { return r.RTTMs >= 150 && r.RTTMs < 300 }},
		{"rtt>=300ms", func(r PacketPairResult) bool { return r.RTTMs >= 300 }},
	}
	out := make([]PacketRegime, 0, len(buckets))
	for _, b := range buckets {
		var ratios, relerrs []float64
		for _, r := range results {
			if !b.in(r) || r.MathisKBs <= 0 {
				continue
			}
			ratio := r.PacketKBs / r.MathisKBs
			ratios = append(ratios, ratio)
			re := ratio - 1
			if re < 0 {
				re = -re
			}
			relerrs = append(relerrs, re)
		}
		reg := PacketRegime{Name: b.name, Pairs: len(ratios)}
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			sort.Float64s(relerrs)
			reg.MedianRatio = ratios[len(ratios)/2]
			reg.MedianAbsRelErr = relerrs[len(relerrs)/2]
		}
		out = append(out, reg)
	}
	return out
}
