package topology

import (
	"math/rand"
	"sort"
	"testing"

	"pathsel/internal/geo"
)

func mustGenerate(t *testing.T, cfg Config) *Topology {
	t.Helper()
	top, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return top
}

func TestGenerateDefaultValidates(t *testing.T) {
	for _, era := range []Era{Era1995, Era1999} {
		t.Run(era.String(), func(t *testing.T) {
			top := mustGenerate(t, DefaultConfig(era))
			if err := top.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(Era1999)
	a := mustGenerate(t, cfg)
	b := mustGenerate(t, cfg)
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ: %v vs %v", a.Stats(), b.Stats())
	}
	for i := range a.Routers {
		if a.Routers[i].Loc != b.Routers[i].Loc || a.Routers[i].AS != b.Routers[i].AS {
			t.Fatalf("router %d differs between same-seed runs", i)
		}
	}
	for i := range a.Links {
		al, bl := a.Links[i], b.Links[i]
		if al.From != bl.From || al.To != bl.To || al.PropDelayMs != bl.PropDelayMs {
			t.Fatalf("link %d differs between same-seed runs", i)
		}
	}
	for i := range a.Hosts {
		if a.Hosts[i].Name != b.Hosts[i].Name || a.Hosts[i].Attach != b.Hosts[i].Attach {
			t.Fatalf("host %d differs between same-seed runs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig(Era1999)
	a := mustGenerate(t, cfg)
	cfg.Seed = 2
	b := mustGenerate(t, cfg)
	same := true
	for i := range a.Routers {
		if a.Routers[i].Loc != b.Routers[i].Loc {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical router placements")
	}
}

func TestGenerateCounts(t *testing.T) {
	cfg := DefaultConfig(Era1999)
	top := mustGenerate(t, cfg)
	s := top.Stats()
	if s.Tier1 != cfg.NumTier1 || s.Transit != cfg.NumTransit || s.Stub != cfg.NumStub {
		t.Errorf("AS counts: got %+v, want %d/%d/%d", s, cfg.NumTier1, cfg.NumTransit, cfg.NumStub)
	}
	if s.Hosts != cfg.NumHosts {
		t.Errorf("hosts: got %d, want %d", s.Hosts, cfg.NumHosts)
	}
	wantRouters := cfg.NumTier1*cfg.RoutersTier1 + cfg.NumTransit*cfg.RoutersTransit + cfg.NumStub*cfg.RoutersStub
	if s.Routers != wantRouters {
		t.Errorf("routers: got %d, want %d", s.Routers, wantRouters)
	}
}

func TestTier1FullMesh(t *testing.T) {
	top := mustGenerate(t, DefaultConfig(Era1999))
	var tier1 []*AS
	for _, as := range top.ASList {
		if as.Class == Tier1 {
			tier1 = append(tier1, as)
		}
	}
	for i := 0; i < len(tier1); i++ {
		for j := 0; j < len(tier1); j++ {
			if i == j {
				continue
			}
			if len(top.InterASLinks(tier1[i].ASN, tier1[j].ASN)) == 0 {
				t.Errorf("tier-1 ASes %d and %d not directly connected", tier1[i].ASN, tier1[j].ASN)
			}
		}
	}
}

func TestEveryNonTier1HasProvider(t *testing.T) {
	top := mustGenerate(t, DefaultConfig(Era1995))
	for _, as := range top.ASList {
		if as.Class == Tier1 {
			if len(as.Providers) != 0 {
				t.Errorf("tier-1 AS %d has providers %v", as.ASN, as.Providers)
			}
			continue
		}
		if len(as.Providers) == 0 {
			t.Errorf("AS %d (%v) has no provider", as.ASN, as.Class)
		}
		for _, p := range as.Providers {
			prov := top.AS(p)
			found := false
			for _, c := range prov.Customers {
				if c == as.ASN {
					found = true
				}
			}
			if !found {
				t.Errorf("AS %d lists provider %d, but %d does not list it as customer", as.ASN, p, p)
			}
		}
	}
}

func TestPeerSymmetry(t *testing.T) {
	top := mustGenerate(t, DefaultConfig(Era1999))
	for _, as := range top.ASList {
		for _, p := range as.Peers {
			other := top.AS(p)
			found := false
			for _, q := range other.Peers {
				if q == as.ASN {
					found = true
				}
			}
			if !found {
				t.Errorf("AS %d peers with %d but not vice versa", as.ASN, p)
			}
		}
	}
}

func TestASGraphReachableValleyFree(t *testing.T) {
	// Every AS must reach every other AS by a valley-free walk:
	// zero or more customer-to-provider steps, at most one peer step,
	// then zero or more provider-to-customer steps. We verify with the
	// standard up-peer-down reachability construction.
	top := mustGenerate(t, DefaultConfig(Era1999))
	for _, src := range top.ASList {
		reach := valleyFreeReachable(top, src.ASN)
		for _, dst := range top.ASList {
			if !reach[dst.ASN] {
				t.Fatalf("AS %d cannot reach AS %d valley-free", src.ASN, dst.ASN)
			}
		}
	}
}

// valleyFreeReachable computes the set of ASes reachable from src by a
// valley-free path: an "up" phase over providers, one optional peer edge,
// and a "down" phase over customers.
func valleyFreeReachable(top *Topology, src ASN) map[ASN]bool {
	up := map[ASN]bool{src: true}
	queue := []ASN{src}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, p := range top.AS(a).Providers {
			if !up[p] {
				up[p] = true
				queue = append(queue, p)
			}
		}
	}
	// After the up phase we may take one peer edge.
	afterPeer := map[ASN]bool{}
	for a := range up {
		afterPeer[a] = true
		for _, p := range top.AS(a).Peers {
			afterPeer[p] = true
		}
	}
	// Down phase over customers.
	down := map[ASN]bool{}
	queue = queue[:0]
	for a := range afterPeer {
		down[a] = true
		queue = append(queue, a)
	}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, c := range top.AS(a).Customers {
			if !down[c] {
				down[c] = true
				queue = append(queue, c)
			}
		}
	}
	return down
}

func TestHostsAttachToDistinctStubs(t *testing.T) {
	top := mustGenerate(t, DefaultConfig(Era1999))
	seen := map[ASN]bool{}
	for _, h := range top.Hosts {
		if top.AS(h.AS).Class != Stub {
			t.Errorf("host %s in non-stub AS %d", h.Name, h.AS)
		}
		if seen[h.AS] {
			t.Errorf("two hosts in AS %d", h.AS)
		}
		seen[h.AS] = true
	}
}

func TestHostByName(t *testing.T) {
	top := mustGenerate(t, DefaultConfig(Era1999))
	h := top.Hosts[3]
	if got := top.HostByName(h.Name); got != h {
		t.Errorf("HostByName(%q) = %v, want %v", h.Name, got, h)
	}
	if got := top.HostByName("no-such-host"); got != nil {
		t.Errorf("HostByName(no-such-host) = %v, want nil", got)
	}
}

func TestInterASLinkEndpoints(t *testing.T) {
	top := mustGenerate(t, DefaultConfig(Era1999))
	for _, l := range top.Links {
		if l.Rel == Internal {
			continue
		}
		fromAS := top.Router(l.From).AS
		toAS := top.Router(l.To).AS
		if fromAS == toAS {
			t.Fatalf("inter-AS link %d has both ends in AS %d", l.ID, fromAS)
		}
		ids := top.InterASLinks(fromAS, toAS)
		found := false
		for _, id := range ids {
			if id == l.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("link %d missing from InterASLinks(%d,%d)", l.ID, fromAS, toAS)
		}
	}
}

func TestPeerLinksAtExchanges(t *testing.T) {
	top := mustGenerate(t, DefaultConfig(Era1999))
	n := 0
	for _, l := range top.Links {
		if l.Rel == PeerToPeer {
			if l.Exchange < 0 || l.Exchange >= top.ExchangeCount {
				t.Fatalf("peer link %d has exchange %d outside [0,%d)", l.ID, l.Exchange, top.ExchangeCount)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no peer links generated")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumTier1 = 1 },
		func(c *Config) { c.NumTransit = 0 },
		func(c *Config) { c.NumStub = 1 },
		func(c *Config) { c.NumHosts = 1 },
		func(c *Config) { c.NumHosts = c.NumStub + 1 },
		func(c *Config) { c.RoutersStub = 0 },
		func(c *Config) { c.NumExchanges = 0 },
		func(c *Config) { c.MultihomeProb = 1.5 },
		func(c *Config) { c.TransitPeerProb = -0.1 },
		func(c *Config) { c.PolicyBiasProb = 2 },
		func(c *Config) { c.RateLimitProb = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(Era1999)
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLinkDelaysReflectGeography(t *testing.T) {
	top := mustGenerate(t, DefaultConfig(Era1999))
	for _, l := range top.Links {
		a, b := top.Router(l.From).Loc, top.Router(l.To).Loc
		min := geo.PropagationDelayMs(a, b)
		if l.PropDelayMs < min-1e-9 {
			t.Fatalf("link %d delay %.3f below propagation bound %.3f", l.ID, l.PropDelayMs, min)
		}
	}
}

func TestRelationshipInvert(t *testing.T) {
	cases := map[Relationship]Relationship{
		ProviderToCustomer: CustomerToProvider,
		CustomerToProvider: ProviderToCustomer,
		PeerToPeer:         PeerToPeer,
		Internal:           Internal,
	}
	for r, want := range cases {
		if got := r.Invert(); got != want {
			t.Errorf("%v.Invert() = %v, want %v", r, got, want)
		}
	}
}

func TestStringers(t *testing.T) {
	if Tier1.String() != "tier1" || Transit.String() != "transit" || Stub.String() != "stub" {
		t.Error("ASClass strings wrong")
	}
	if Era1995.String() != "era-1995" || Era1999.String() != "era-1999" {
		t.Error("Era strings wrong")
	}
	if PeerToPeer.String() != "peer-to-peer" || Internal.String() != "internal" {
		t.Error("Relationship strings wrong")
	}
	top := mustGenerate(t, DefaultConfig(Era1999))
	if top.Stats().String() == "" {
		t.Error("Stats string empty")
	}
}

func TestLookupOutOfRange(t *testing.T) {
	top := mustGenerate(t, DefaultConfig(Era1999))
	if top.Router(-1) != nil || top.Router(RouterID(len(top.Routers))) != nil {
		t.Error("out-of-range Router lookup should return nil")
	}
	if top.Host(-1) != nil || top.Host(HostID(len(top.Hosts))) != nil {
		t.Error("out-of-range Host lookup should return nil")
	}
	if top.Link(-1) != nil || top.Link(LinkID(len(top.Links))) != nil {
		t.Error("out-of-range Link lookup should return nil")
	}
	if top.AS(-1) != nil {
		t.Error("unknown AS lookup should return nil")
	}
	if top.NeighborASes(-1) != nil {
		t.Error("NeighborASes of unknown AS should be nil")
	}
}

func TestWorldRegionHostsSpread(t *testing.T) {
	cfg := DefaultConfig(Era1995)
	cfg.Region = geo.World
	cfg.NumHosts = 30
	top := mustGenerate(t, cfg)
	if err := top.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	inNA := 0
	for _, h := range top.Hosts {
		if geo.Contains(geo.NorthAmerica, h.Loc) {
			inNA++
		}
	}
	if inNA == len(top.Hosts) {
		t.Error("world-region topology placed every host in North America")
	}
	if inNA == 0 {
		t.Error("world-region topology placed no host in North America")
	}
}

// nearestBySort is nearestOf as a full sort of the pool by (distance,
// ASN): the reference the top-k selection must match.
func nearestBySort(rng *rand.Rand, pool []*AS, p geo.Point, k int) *AS {
	type cand struct {
		as *AS
		d  float64
	}
	cands := make([]cand, len(pool))
	for i, as := range pool {
		cands[i] = cand{as, geo.DistanceKm(as.Home, p)}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].as.ASN < cands[j].as.ASN
	})
	return cands[rng.Intn(min(k, len(cands)))].as
}

// TestNearestOfMatchesSort: the top-k selection draws the same AS as
// sorting the whole pool, for the provider counts the generator uses
// and beyond, including pools with tied distances.
func TestNearestOfMatchesSort(t *testing.T) {
	gen := rand.New(rand.NewSource(5))
	sites := []geo.Point{{LatDeg: 40, LonDeg: -100}, {LatDeg: 51, LonDeg: 0}, {LatDeg: -33, LonDeg: 151}}
	for trial := 0; trial < 200; trial++ {
		pool := make([]*AS, 1+gen.Intn(40))
		for i := range pool {
			// Few distinct homes, so many candidates tie on distance.
			home := sites[gen.Intn(len(sites))]
			home.LonDeg += float64(gen.Intn(4))
			pool[i] = &AS{ASN: ASN(1000 - 7*i), Home: home}
		}
		p := geo.Point{LatDeg: float64(gen.Intn(120) - 60), LonDeg: float64(gen.Intn(360) - 180)}
		for _, k := range []int{1, 4, 8, 12} {
			seed := gen.Int63()
			got := nearestOf(rand.New(rand.NewSource(seed)), pool, p, k)
			want := nearestBySort(rand.New(rand.NewSource(seed)), pool, p, k)
			if got != want {
				t.Fatalf("trial %d k=%d: picked AS%d, sorting picks AS%d", trial, k, got.ASN, want.ASN)
			}
		}
	}
}
