package topology

import (
	"fmt"
	"math/rand"
	"sort"

	"pathsel/internal/geo"
)

// exchangeSites are candidate exchange-point locations (major
// interconnection cities, mid-90s NAPs among them).
var exchangeSites = []geo.Point{
	{LatDeg: 38.99, LonDeg: -77.03},  // Washington DC (MAE-East)
	{LatDeg: 37.37, LonDeg: -121.92}, // San Jose (MAE-West)
	{LatDeg: 41.88, LonDeg: -87.63},  // Chicago (AADS NAP)
	{LatDeg: 40.74, LonDeg: -74.17},  // Pennsauken/NY (Sprint NAP)
	{LatDeg: 51.51, LonDeg: -0.13},   // London (LINX)
	{LatDeg: 52.37, LonDeg: 4.90},    // Amsterdam (AMS-IX)
	{LatDeg: 35.68, LonDeg: 139.69},  // Tokyo
	{LatDeg: 33.75, LonDeg: -84.39},  // Atlanta
	{LatDeg: 32.78, LonDeg: -96.80},  // Dallas
	{LatDeg: 47.61, LonDeg: -122.33}, // Seattle (SIX)
}

// router placement radii by AS class, in km. Tier-1 backbones span a
// continent; stubs are campus networks.
const (
	tier1SpreadKm   = 2500
	transitSpreadKm = 700
	stubSpreadKm    = 30
)

// Generate builds a topology from the configuration. The result is
// deterministic in cfg.Seed.
func Generate(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	caps := cfg.capacities()

	t := &Topology{
		Config:  cfg,
		asByNum: map[ASN]*AS{},
		interAS: map[[2]ASN][]LinkID{},
	}

	nEx := cfg.NumExchanges
	if nEx > len(exchangeSites) {
		nEx = len(exchangeSites)
	}
	t.ExchangeCount = nEx

	// --- ASes ---
	next := ASN(1)
	newAS := func(class ASClass, home geo.Point) *AS {
		as := &AS{ASN: next, Class: class, Home: home, LocalPrefBias: map[ASN]int{}}
		next++
		t.ASList = append(t.ASList, as)
		t.asByNum[as.ASN] = as
		return as
	}

	var tier1s, transits, stubs []*AS
	for i := 0; i < cfg.NumTier1; i++ {
		// Tier-1 backbones are headquartered near exchanges.
		home := geo.Jitter(rng, exchangeSites[i%nEx], 100)
		tier1s = append(tier1s, newAS(Tier1, home))
	}
	for i := 0; i < cfg.NumTransit; i++ {
		// Most transit providers serve the configured region; a minority
		// are international so that world-wide host sets have transit.
		region := cfg.Region
		if rng.Float64() < 0.25 {
			region = geo.World
		}
		transits = append(transits, newAS(Transit, geo.RandomPoint(rng, region)))
	}
	for i := 0; i < cfg.NumStub; i++ {
		stubs = append(stubs, newAS(Stub, geo.RandomPoint(rng, cfg.Region)))
	}

	// --- Routers ---
	newRouter := func(as *AS, spreadKm float64) *Router {
		r := &Router{ID: RouterID(len(t.Routers)), AS: as.ASN, Loc: geo.Jitter(rng, as.Home, spreadKm)}
		t.Routers = append(t.Routers, r)
		as.Routers = append(as.Routers, r.ID)
		return r
	}
	for _, as := range tier1s {
		for i := 0; i < cfg.RoutersTier1; i++ {
			newRouter(as, tier1SpreadKm)
		}
	}
	for _, as := range transits {
		for i := 0; i < cfg.RoutersTransit; i++ {
			newRouter(as, transitSpreadKm)
		}
	}
	for _, as := range stubs {
		for i := 0; i < cfg.RoutersStub; i++ {
			newRouter(as, stubSpreadKm)
		}
	}

	// --- Intra-AS links: ring plus random chords ---
	for _, as := range t.ASList {
		capMbps := caps.edge
		switch as.Class {
		case Tier1:
			capMbps = caps.core
		case Transit:
			capMbps = caps.transit
		}
		n := len(as.Routers)
		if n == 1 {
			continue
		}
		for i := 0; i < n; i++ {
			a, b := as.Routers[i], as.Routers[(i+1)%n]
			if n == 2 && i == 1 {
				break // avoid a duplicate pair for two-router ASes
			}
			t.addLinkPair(a, b, Internal, internalDelay(t, a, b), capMbps, -1)
		}
		// Chords make larger backbones better connected than a bare ring.
		chords := n / 3
		for c := 0; c < chords; c++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j || j == (i+1)%n || i == (j+1)%n {
				continue
			}
			t.addLinkPair(as.Routers[i], as.Routers[j], Internal,
				internalDelay(t, as.Routers[i], as.Routers[j]), capMbps, -1)
		}
	}

	// --- Inter-AS links ---
	// Tier-1 full peer mesh. Every pair interconnects at the exchange
	// the dominant (lower-numbered) provider prefers; some pairs add a
	// second session at the other party's preferred exchange, giving
	// hot-potato egress selection a real choice there — the early-exit
	// behaviour the paper's Section 3 calls out.
	for i := 0; i < len(tier1s); i++ {
		for j := i + 1; j < len(tier1s); j++ {
			a, b := tier1s[i], tier1s[j]
			exA := nearestExchange(a.Home, b.Home, nEx)
			exB := nearestExchange(b.Home, a.Home, nEx)
			exchanges := []int{exA}
			if exB != exA && rng.Float64() < 0.35 {
				exchanges = append(exchanges, exB)
			}
			for _, ex := range exchanges {
				exLoc := exchangeSites[ex]
				ra := nearestRouter(t, a, exLoc)
				rb := nearestRouter(t, b, exLoc)
				t.addLinkPair(ra, rb, PeerToPeer, interDelay(t, ra, rb), caps.exchange, ex)
			}
			a.Peers = append(a.Peers, b.ASN)
			b.Peers = append(b.Peers, a.ASN)
		}
	}

	// Transit ASes: one or two tier-1/earlier-transit providers
	// (acyclic provider relation), plus occasional transit peering.
	for i, as := range transits {
		prov := tier1s[rng.Intn(len(tier1s))]
		connectProviderCustomer(t, prov, as, caps.transit)
		if rng.Float64() < cfg.MultihomeProb {
			second := pickSecondProvider(rng, tier1s, transits[:i], prov.ASN)
			if second != nil {
				connectProviderCustomer(t, second, as, caps.transit)
			}
		}
	}
	for i := 0; i < len(transits); i++ {
		for j := i + 1; j < len(transits); j++ {
			if rng.Float64() >= cfg.TransitPeerProb {
				continue
			}
			a, b := transits[i], transits[j]
			ex := nearestExchange(a.Home, b.Home, nEx)
			ra := nearestRouter(t, a, exchangeSites[ex])
			rb := nearestRouter(t, b, exchangeSites[ex])
			t.addLinkPair(ra, rb, PeerToPeer, interDelay(t, ra, rb), caps.exchange, ex)
			a.Peers = append(a.Peers, b.ASN)
			b.Peers = append(b.Peers, a.ASN)
		}
	}

	// Stub ASes: one or two transit providers, chosen with a preference
	// for nearby providers (as real edge networks do), via occasional
	// direct tier-1 connections for well-connected sites.
	for _, as := range stubs {
		var pool []*AS
		if rng.Float64() < 0.10 {
			pool = tier1s
		} else {
			pool = transits
		}
		var prov *AS
		if rng.Float64() < cfg.RemoteProviderProb {
			// A geographically arbitrary provider (distant NSFNET
			// regional, corporate backbone): traffic to and from this
			// stub detours through the provider's service region.
			prov = pool[rng.Intn(len(pool))]
		} else {
			prov = nearestOf(rng, pool, as.Home, 4)
		}
		connectProviderCustomer(t, prov, as, caps.edge)
		if rng.Float64() < cfg.MultihomeProb {
			second := nearestOf(rng, transits, as.Home, 8)
			if second.ASN != prov.ASN {
				connectProviderCustomer(t, second, as, caps.edge)
			}
		}
	}

	// --- Policy bias ---
	for _, as := range t.ASList {
		if rng.Float64() >= cfg.PolicyBiasProb {
			continue
		}
		neigh := t.NeighborASes(as.ASN)
		if len(neigh) == 0 {
			continue
		}
		n := neigh[rng.Intn(len(neigh))]
		if rng.Float64() < 0.5 {
			as.LocalPrefBias[n] = 1 // prefer (e.g. cheaper contract)
		} else {
			as.LocalPrefBias[n] = -1 // avoid (e.g. per-byte billing)
		}
	}

	// --- Hosts ---
	// Hosts are assigned round-robin over a shuffled stub order, so each
	// stub gets at most ceil(NumHosts/NumStub) hosts — within the
	// HostsPerStub cap Validate enforces.
	hostStubs := make([]*AS, len(stubs))
	copy(hostStubs, stubs)
	rng.Shuffle(len(hostStubs), func(i, j int) { hostStubs[i], hostStubs[j] = hostStubs[j], hostStubs[i] })
	for i := 0; i < cfg.NumHosts; i++ {
		as := hostStubs[i%len(hostStubs)]
		attach := as.Routers[rng.Intn(len(as.Routers))]
		rl := rng.Float64() < cfg.RateLimitProb
		h := &Host{
			ID:                 HostID(len(t.Hosts)),
			Name:               fmt.Sprintf("host%02d.as%d", i, as.ASN),
			AS:                 as.ASN,
			Attach:             attach,
			Loc:                geo.Jitter(rng, t.Router(attach).Loc, 5),
			AccessDelayMs:      0.3 + rng.Float64()*1.7,
			AccessCapacityMbps: caps.access,
			RateLimitICMP:      rl,
		}
		if rl {
			t.Router(attach).RateLimitICMP = true
		}
		t.Hosts = append(t.Hosts, h)
	}

	sortNeighbors(t)
	// Pack the out-link adjacency before the topology escapes, so
	// concurrent consumers only ever read the finished slabs.
	t.packOutLinks()
	return t, nil
}

// connectProviderCustomer wires a provider-customer link between the two
// ASes using the closest router pair, and records the relationship.
func connectProviderCustomer(t *Topology, prov, cust *AS, capMbps float64) {
	rp := nearestRouter(t, prov, cust.Home)
	rc := nearestRouter(t, cust, t.Router(rp).Loc)
	t.addLinkPair(rp, rc, ProviderToCustomer, interDelay(t, rp, rc), capMbps, -1)
	prov.Customers = append(prov.Customers, cust.ASN)
	cust.Providers = append(cust.Providers, prov.ASN)
}

// pickSecondProvider selects a second provider distinct from first, from
// tier-1s plus already-created transits (keeping the provider DAG acyclic).
func pickSecondProvider(rng *rand.Rand, tier1s, earlierTransits []*AS, first ASN) *AS {
	pool := make([]*AS, 0, len(tier1s)+len(earlierTransits))
	pool = append(pool, tier1s...)
	pool = append(pool, earlierTransits...)
	// Random order scan for the first non-duplicate.
	for _, i := range rng.Perm(len(pool)) {
		if pool[i].ASN != first {
			return pool[i]
		}
	}
	return nil
}

// nearestOf picks uniformly among the k ASes nearest to p, modeling a
// site choosing one of its local providers. Candidates rank by
// (distance, ASN); with k of at most 8 an insertion into the top k
// costs less than sorting the whole pool, and yields the same k
// candidates in the same order.
func nearestOf(rng *rand.Rand, pool []*AS, p geo.Point, k int) *AS {
	k = min(k, len(pool))
	var buf [8]nearCand
	top := buf[:0]
	if k > len(buf) {
		top = make([]nearCand, 0, k)
	}
	for _, as := range pool {
		c := nearCand{as, geo.DistanceKm(as.Home, p)}
		if len(top) == k {
			if !c.before(top[k-1]) {
				continue
			}
			top = top[:k-1]
		}
		top = append(top, c)
		for i := len(top) - 1; i > 0 && c.before(top[i-1]); i-- {
			top[i], top[i-1] = top[i-1], c
		}
	}
	return top[rng.Intn(k)].as
}

// nearCand is a provider candidate at distance d from a site.
type nearCand struct {
	as *AS
	d  float64
}

// before orders candidates by distance, then ASN.
func (c nearCand) before(o nearCand) bool {
	if c.d != o.d {
		return c.d < o.d
	}
	return c.as.ASN < o.as.ASN
}

// nearestRouter returns the router of as closest to p.
func nearestRouter(t *Topology, as *AS, p geo.Point) RouterID {
	best := as.Routers[0]
	bestD := geo.DistanceKm(t.Router(best).Loc, p)
	for _, r := range as.Routers[1:] {
		if d := geo.DistanceKm(t.Router(r).Loc, p); d < bestD {
			best, bestD = r, d
		}
	}
	return best
}

// nearestExchange returns the exchange site where two ASes interconnect.
// Real peering sessions are placed where the dominant provider prefers,
// not at the geographic midpoint, so the exchange is the one nearest the
// first AS's home — for traffic between far-away endpoints this produces
// the off-route interconnection points (and the consequent path
// inflation) the paper attributes to routing policy.
func nearestExchange(a, b geo.Point, n int) int {
	best, bestD := 0, geo.DistanceKm(exchangeSites[0], a)
	for i := 1; i < n; i++ {
		if d := geo.DistanceKm(exchangeSites[i], a); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func internalDelay(t *Topology, a, b RouterID) float64 {
	d := geo.PropagationDelayMs(t.Router(a).Loc, t.Router(b).Loc)
	if d < 0.05 {
		d = 0.05 // switch fabric floor
	}
	return d
}

func interDelay(t *Topology, a, b RouterID) float64 {
	d := geo.PropagationDelayMs(t.Router(a).Loc, t.Router(b).Loc)
	if d < 0.2 {
		d = 0.2 // cross-connect floor
	}
	return d
}

// sortNeighbors puts every AS's neighbor lists in ascending ASN order so
// downstream iteration is deterministic.
func sortNeighbors(t *Topology) {
	for _, as := range t.ASList {
		sort.Slice(as.Providers, func(i, j int) bool { return as.Providers[i] < as.Providers[j] })
		sort.Slice(as.Customers, func(i, j int) bool { return as.Customers[i] < as.Customers[j] })
		sort.Slice(as.Peers, func(i, j int) bool { return as.Peers[i] < as.Peers[j] })
	}
}
