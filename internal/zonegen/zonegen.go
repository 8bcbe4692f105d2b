// Package zonegen builds the synthetic Internet the crawler experiments run
// against: five domain populations shaped like the paper's lists (Alexa,
// Majestic, Umbrella, the .nl zone, and the root), each with calibrated TTL
// distributions, bailiwick configurations, shared hosting, DNSSEC presence,
// CNAME tails and a sprinkle of TTL-zero and unresponsive domains. The
// populations are served by real authoritative servers over the simulated
// network, so the crawler measures them exactly as the paper measured the
// real lists.
package zonegen

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

// List identifies one of the five crawled populations.
type List string

// The five lists of §5.1.
const (
	Alexa    List = "alexa"
	Majestic List = "majestic"
	Umbrella List = "umbrella"
	NL       List = "nl"
	Root     List = "root"
)

// AllLists in the paper's column order.
var AllLists = []List{Alexa, Majestic, Umbrella, NL, Root}

// ContentClass is the DMap classification of a .nl domain's web content
// (§5.1.1, Table 6).
type ContentClass uint8

// Content classes; Unclassified covers domains DMap could not categorize.
const (
	Unclassified ContentClass = iota
	Placeholder
	Ecommerce
	Parking
)

func (c ContentClass) String() string {
	switch c {
	case Placeholder:
		return "placeholder"
	case Ecommerce:
		return "e-commerce"
	case Parking:
		return "parking"
	}
	return "unclassified"
}

// Domain is one generated domain with its ground truth, which experiments
// may consult but the crawler must rediscover by querying.
type Domain struct {
	Name dnswire.Name
	List List
	// Responsive is false for domains whose servers never answer
	// (Umbrella's transient cloud names, mostly).
	Responsive bool
	// NSBehavior describes what an NS query to the child returns.
	NSBehavior NSBehavior
	// Bailiwick is the ground-truth NS host configuration.
	Bailiwick zone.BailiwickClass
	// Content is set for .nl domains DMap can classify.
	Content ContentClass
	// ChildAddrs are the authoritative server addresses for the domain.
	ChildAddrs []netip.Addr
	// ParentAddr serves the domain's parent zone.
	ParentAddr netip.Addr
	// Zone is the child zone served at ChildAddrs.
	Zone *zone.Zone
}

// NSBehavior is what an NS query to the child authoritative yields.
type NSBehavior uint8

// NS query outcomes seen in the wild (Table 9's CNAME/SOA rows).
const (
	NSAnswer NSBehavior = iota
	NSCNAME             // the name is an alias; NS query returns a CNAME
	NSSOA               // NODATA: the name exists under a zone but has no NS
)

// listParams calibrates one list's population.
type listParams struct {
	size       int
	tld        string
	responsive float64
	// record presence
	pAAAA, pMX, pDNSKEY float64
	nsPerDomain         [2]int // min,max
	aPerDomain          [2]int
	// NS-query behavior fractions
	fCNAME, fSOA float64
	// bailiwick fractions of NS-answering domains
	fOutOnly, fInOnly float64 // mixed = rest
	// hosting concentration: fraction of domains per provider-unit; lower
	// means more sharing (higher unique ratios in Table 5).
	providerFrac float64
	// aShare: how many customers share one address on average.
	aShare int
}

// params are calibrated against Table 5 (presence ratios), Table 9
// (bailiwick) and the response ratios of §5.1.
var params = map[List]listParams{
	Alexa: {
		size: 10000, tld: "com", responsive: 0.99,
		pAAAA: 0.28, pMX: 0.62, pDNSKEY: 0.043,
		nsPerDomain: [2]int{2, 4}, aPerDomain: [2]int{1, 2},
		fCNAME: 0.052, fSOA: 0.013,
		fOutOnly: 0.950, fInOnly: 0.041,
		providerFrac: 0.055, aShare: 2,
	},
	Majestic: {
		size: 10000, tld: "com", responsive: 0.93,
		pAAAA: 0.23, pMX: 0.60, pDNSKEY: 0.041,
		nsPerDomain: [2]int{2, 4}, aPerDomain: [2]int{1, 2},
		fCNAME: 0.008, fSOA: 0.009,
		fOutOnly: 0.957, fInOnly: 0.031,
		providerFrac: 0.05, aShare: 2,
	},
	Umbrella: {
		size: 10000, tld: "com", responsive: 0.78,
		pAAAA: 0.37, pMX: 0.48, pDNSKEY: 0.015,
		nsPerDomain: [2]int{2, 3}, aPerDomain: [2]int{1, 3},
		fCNAME: 0.578, fSOA: 0.075,
		fOutOnly: 0.901, fInOnly: 0.074,
		providerFrac: 0.06, aShare: 2,
	},
	NL: {
		size: 25000, tld: "nl", responsive: 0.977,
		pAAAA: 0.39, pMX: 0.78, pDNSKEY: 0.697,
		nsPerDomain: [2]int{2, 3}, aPerDomain: [2]int{1, 1},
		fCNAME: 0.0017, fSOA: 0.0023,
		fOutOnly: 0.997, fInOnly: 0.0023,
		providerFrac: 0.006, aShare: 20,
	},
	Root: {
		size: 1562, tld: "", responsive: 0.97,
		pAAAA: 0.90, pMX: 0.05, pDNSKEY: 0,
		nsPerDomain: [2]int{3, 7}, aPerDomain: [2]int{1, 1},
		fCNAME: 0, fSOA: 0,
		fOutOnly: 0.487, fInOnly: 0.426,
		providerFrac: 0.25, aShare: 1,
	},
}

// Config controls generation.
type Config struct {
	Seed int64
	// Scale multiplies every list size (1.0 = the package defaults;
	// the paper's full scale would be Scale≈100 for the million-entry
	// lists). Zero means 1.0.
	Scale float64
}

// World is the generated Internet.
type World struct {
	Net   *simnet.Network
	Clock simnet.Clock
	// RootAddr and RootZone anchor resolution.
	RootAddr netip.Addr
	RootZone *zone.Zone
	// Lists holds every generated domain per list.
	Lists map[List][]*Domain
	// HostAddr resolves a nameserver host name to its server address —
	// the stand-in for resolving hosting providers' own names when a
	// referral carries no glue.
	HostAddr map[dnswire.Name]netip.Addr
	// TLDAddr maps each TLD to its registry server.
	TLDAddr map[dnswire.Name]netip.Addr

	deadAddr netip.Addr
	nextIP   uint32
	rng      *rand.Rand
	clock    simnet.Clock
	servers  map[netip.Addr]*authoritative.Server
}

// Build generates the world onto the given network and clock.
func Build(cfg Config, net *simnet.Network, clock simnet.Clock) *World {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	w := &World{
		Net:      net,
		Clock:    clock,
		Lists:    make(map[List][]*Domain),
		HostAddr: make(map[dnswire.Name]netip.Addr),
		TLDAddr:  make(map[dnswire.Name]netip.Addr),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		clock:    clock,
		servers:  make(map[netip.Addr]*authoritative.Server),
	}
	w.nextIP = 0x64400001 // 100.64.0.1, carrier-grade NAT space as lab space
	w.deadAddr = w.allocIP()

	w.RootAddr = w.allocIP()
	w.RootZone = zone.New(dnswire.Root)
	w.RootZone.MustAdd(
		dnswire.NewSOA(".", 86400, "a.root-servers.net.", "nstld.example.", 2019021300, 1800, 900, 604800, 86400),
		dnswire.NewNS(".", 518400, "a.root-servers.net"),
		dnswire.NewA("a.root-servers.net", 518400, w.RootAddr.String()),
	)
	rootSrv := w.serverAt(w.RootAddr, "a.root-servers.net")
	rootSrv.AddZone(w.RootZone)

	// TLD registries used by the SLD lists.
	for _, tld := range []string{"com", "nl", "net", "org"} {
		w.buildTLD(tld)
	}

	for _, l := range []List{Alexa, Majestic, Umbrella, NL} {
		w.buildSLDList(l, cfg.Scale)
	}
	w.buildRootList(cfg.Scale)
	return w
}

func (w *World) allocIP() netip.Addr {
	ip := w.nextIP
	w.nextIP++
	return netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)})
}

func (w *World) serverAt(addr netip.Addr, name string) *authoritative.Server {
	if s, ok := w.servers[addr]; ok {
		return s
	}
	s := authoritative.NewServer(dnswire.NewName(name), w.clock)
	w.servers[addr] = s
	w.Net.Attach(addr, s)
	return s
}

func (w *World) buildTLD(tld string) {
	addr := w.allocIP()
	name := dnswire.NewName(tld)
	host := dnswire.NewName("a.gtld-servers." + tld)
	z := zone.New(name)
	z.MustAdd(
		dnswire.NewSOA(tld, 900, string(host), "hostmaster."+tld, 1, 1800, 900, 604800, 900),
		dnswire.NewNS(tld, 172800, string(host)),
		dnswire.NewA(string(host), 172800, addr.String()),
	)
	srv := w.serverAt(addr, string(host))
	srv.AddZone(z)
	w.TLDAddr[name] = addr
	w.HostAddr[host] = addr
	// Delegate from the root.
	w.RootZone.MustAdd(
		dnswire.NewNS(tld, 172800, string(host)),
		dnswire.NewA(string(host), 172800, addr.String()),
	)
}

// provider is one shared-hosting operator: a couple of NS host names, one
// server, and a pool of customer addresses.
type provider struct {
	hosts []dnswire.Name
	addr  netip.Addr
	srv   *authoritative.Server
	pool  []string
}

// buildProviders creates hosting providers for a list. Customer-to-provider
// assignment is power-law distributed: a few giants host most domains,
// which is what produces the high unique-record ratios of Table 5.
func (w *World) buildProviders(l List, n int) []*provider {
	if n < 1 {
		n = 1
	}
	out := make([]*provider, n)
	for i := range out {
		addr := w.allocIP()
		h1 := dnswire.NewName(fmt.Sprintf("ns1.host%d-%s.net", i, l))
		h2 := dnswire.NewName(fmt.Sprintf("ns2.host%d-%s.net", i, l))
		p := &provider{
			hosts: []dnswire.Name{h1, h2},
			addr:  addr,
			srv:   w.serverAt(addr, string(h1)),
		}
		w.HostAddr[h1] = addr
		w.HostAddr[h2] = addr
		out[i] = p
	}
	return out
}

// pickProvider samples a provider with a power-law preference for low
// indices.
func pickProvider(ps []*provider, r *rand.Rand) *provider {
	x := r.Float64()
	idx := int(math.Floor(float64(len(ps)) * x * x * x))
	if idx >= len(ps) {
		idx = len(ps) - 1
	}
	return ps[idx]
}

func (p *provider) customerAddr(r *rand.Rand, share int, alloc func() netip.Addr) string {
	if share < 1 {
		share = 1
	}
	// Grow the pool so that on average `share` customers share one value.
	if len(p.pool) == 0 || r.Intn(share) == 0 {
		p.pool = append(p.pool, alloc().String())
	}
	return p.pool[r.Intn(len(p.pool))]
}

func intBetween(r *rand.Rand, lohi [2]int) int {
	if lohi[1] <= lohi[0] {
		return lohi[0]
	}
	return lohi[0] + r.Intn(lohi[1]-lohi[0]+1)
}
