package experiments

import (
	"net/netip"

	"dnsttl/internal/atlas"
	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/latency"
	"dnsttl/internal/population"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

// Testbed is the controlled world the active experiments run on: a root,
// the TLDs the paper touches (.net, .com, .co, .uy, .cl), the cachetest.net
// test domain with its sub zone, and the out-of-bailiwick helper domain.
// It mirrors §4.1's setup with the TTLs the paper reports.
type Testbed struct {
	Clock *simnet.VirtualClock
	Net   *simnet.Network
	Topo  *latency.Topology

	Root *zone.Zone

	// Addresses of every authoritative in the testbed.
	RootAddr, NetAddr, ComAddr, CoAddr netip.Addr
	UyAddr                             netip.Addr
	ClAddr                             netip.Addr
	CtAddr                             netip.Addr // ns1.cachetest.net
	SubAddr, SubAddr2                  netip.Addr // sub.cachetest.net old/new
	ZurroAddr                          netip.Addr // ns1.zurro-dns.com
	GoogleCoAddr                       netip.Addr // ns1.google.com
	MapacheAddr                        netip.Addr // controlled-TTL test domain
	MapacheAnycast                     netip.Addr // same service behind anycast

	// Zones the experiments mutate.
	Uy, Cl, Net_, Com, Co, Ct, Sub, Zurro, GoogleCo, Mapache *zone.Zone
	// MapacheExtra holds the controlled domain's helper zones
	// (mapache-dns.net and the anycast sibling).
	MapacheExtra []*zone.Zone

	Servers map[netip.Addr]*authoritative.Server
}

// addrSeq hands out testbed addresses.
type addrSeq uint32

func (a *addrSeq) next() netip.Addr {
	*a++
	v := uint32(*a)
	return netip.AddrFrom4([4]byte{192, 88, byte(v >> 8), byte(v)})
}

// NewTestbed builds the world. Latency: the root and the mapache anycast
// service are anycast; everything else is unicast — the .uy and .cl servers
// in South America, the EC2-Frankfurt-style test servers in Europe.
func NewTestbed(seed int64) *Testbed {
	tb := &Testbed{
		Clock:   simnet.NewVirtualClock(),
		Net:     simnet.NewNetwork(seed),
		Topo:    latency.NewTopology(),
		Servers: make(map[netip.Addr]*authoritative.Server),
	}
	tb.Net.LatencyFor = tb.Topo.LatencyFor
	// Position the network in virtual time so fault schedules (Net.Faults)
	// see the same clock the caches and drivers do.
	tb.Net.Clock = tb.Clock
	var seq addrSeq
	tb.RootAddr = seq.next()
	tb.NetAddr = seq.next()
	tb.ComAddr = seq.next()
	tb.CoAddr = seq.next()
	tb.UyAddr = seq.next()
	tb.ClAddr = seq.next()
	tb.CtAddr = seq.next()
	tb.SubAddr = seq.next()
	tb.SubAddr2 = seq.next()
	tb.ZurroAddr = seq.next()
	tb.GoogleCoAddr = seq.next()
	tb.MapacheAddr = seq.next()
	tb.MapacheAnycast = seq.next()

	// Placement: root and big gTLD infrastructure are anycast worldwide;
	// ccTLD unicast at home; EC2 test servers in EU.
	global := latency.Route53Like()
	tb.Topo.PlaceAnycast(tb.RootAddr, global)
	tb.Topo.PlaceAnycast(tb.NetAddr, global)
	tb.Topo.PlaceAnycast(tb.ComAddr, global)
	tb.Topo.Place(tb.CoAddr, latency.SA)
	// .uy: anycast with sites on the American/European corridor only, so
	// AS/OC/AF clients pay transcontinental RTTs (Figure 10b's spread).
	tb.Topo.PlaceAnycast(tb.UyAddr, &latency.AnycastCatalog{
		Sites: []latency.Region{latency.SA, latency.SA, latency.NA, latency.EU},
	})
	tb.Topo.Place(tb.ClAddr, latency.SA)
	tb.Topo.Place(tb.CtAddr, latency.EU)
	tb.Topo.Place(tb.SubAddr, latency.EU)
	tb.Topo.Place(tb.SubAddr2, latency.EU)
	tb.Topo.Place(tb.ZurroAddr, latency.EU)
	tb.Topo.PlaceAnycast(tb.GoogleCoAddr, global)
	tb.Topo.Place(tb.MapacheAddr, latency.EU)
	tb.Topo.PlaceAnycast(tb.MapacheAnycast, global)

	tb.buildZones()
	return tb
}

func (tb *Testbed) serve(addr netip.Addr, name string, zs ...*zone.Zone) *authoritative.Server {
	s := authoritative.NewServer(dnswire.NewName(name), tb.Clock)
	for _, z := range zs {
		s.AddZone(z)
	}
	tb.Net.Attach(addr, s)
	tb.Servers[addr] = s
	return s
}

func (tb *Testbed) buildZones() {
	a := func(addr netip.Addr) string { return addr.String() }

	tb.Root = zone.New(dnswire.Root)
	tb.Root.MustAdd(
		dnswire.NewSOA(".", 86400, "a.root-servers.net.", "nstld.example.", 2019021400, 1800, 900, 604800, 86400),
		dnswire.NewNS(".", 518400, "a.root-servers.net"),
		dnswire.NewA("a.root-servers.net", 518400, a(tb.RootAddr)),
		// TLD delegations, all with the root's 2-day TTLs.
		dnswire.NewNS("net", 172800, "a.gtld-servers.net"),
		dnswire.NewA("a.gtld-servers.net", 172800, a(tb.NetAddr)),
		dnswire.NewNS("com", 172800, "a.gtld-servers.net"),
		dnswire.NewNS("co", 172800, "ns1.cctld.co"),
		dnswire.NewA("ns1.cctld.co", 172800, a(tb.CoAddr)),
		// Table 1/§3.2: parent glue says two days.
		dnswire.NewNS("uy", 172800, "a.nic.uy"),
		dnswire.NewA("a.nic.uy", 172800, a(tb.UyAddr)),
		dnswire.NewNS("cl", 172800, "a.nic.cl"),
		dnswire.NewA("a.nic.cl", 172800, a(tb.ClAddr)),
	)

	tb.Net_ = zone.New(dnswire.NewName("net"))
	tb.Net_.MustAdd(
		dnswire.NewSOA("net", 900, "a.gtld-servers.net", "nstld.example.", 1, 1800, 900, 604800, 900),
		dnswire.NewNS("net", 172800, "a.gtld-servers.net"),
		dnswire.NewA("a.gtld-servers.net", 172800, a(tb.NetAddr)),
		// cachetest.net delegation (§4.1): .net default two-day TTLs.
		dnswire.NewNS("cachetest.net", 172800, "ns1.cachetest.net"),
		dnswire.NewA("ns1.cachetest.net", 172800, a(tb.CtAddr)),
	)

	tb.Com = zone.New(dnswire.NewName("com"))
	tb.Com.MustAdd(
		dnswire.NewSOA("com", 900, "a.gtld-servers.net", "nstld.example.", 1, 1800, 900, 604800, 900),
		dnswire.NewNS("com", 172800, "a.gtld-servers.net"),
		// zurro-dns.com: the out-of-bailiwick nameserver's own domain.
		// .com uses its standard two-day delegation TTLs — this is the
		// parent data OpenDNS trusted in §4.4; the child zone's own
		// copies carry 3600/7200 (§4.3).
		dnswire.NewNS("zurro-dns.com", 172800, "ns1.zurro-dns.com"),
		dnswire.NewA("ns1.zurro-dns.com", 172800, a(tb.ZurroAddr)),
	)

	// .co registry: google.co's parent says 900 s (§3.3).
	tb.Co = zone.New(dnswire.NewName("co"))
	tb.Co.MustAdd(
		dnswire.NewSOA("co", 900, "ns1.cctld.co", "reg.cctld.co", 1, 1800, 900, 604800, 900),
		dnswire.NewNS("co", 172800, "ns1.cctld.co"),
		dnswire.NewA("ns1.cctld.co", 172800, a(tb.CoAddr)),
		dnswire.NewNS("google.co", 900, "ns1.google.com"),
		// mapache-de-madrid.co: the §6.2 controlled domain, plus an
		// anycast-served sibling for the TTL60-s-anycast column.
		dnswire.NewNS("mapache-de-madrid.co", 172800, "ns1.mapache-dns.net"),
		dnswire.NewNS("mapache-any.co", 172800, "ns-any.mapache-dns.net"),
	)
	// ns1.google.com lives in .com (out of bailiwick of google.co).
	tb.Com.MustAdd(
		dnswire.NewNS("google.com", 172800, "ns1.google.com"),
		dnswire.NewA("ns1.google.com", 172800, a(tb.GoogleCoAddr)),
	)
	tb.Net_.MustAdd(
		dnswire.NewNS("mapache-dns.net", 172800, "ns1.mapache-dns.net"),
		dnswire.NewA("ns1.mapache-dns.net", 172800, a(tb.MapacheAddr)),
		dnswire.NewA("ns-any.mapache-dns.net", 172800, a(tb.MapacheAnycast)),
	)

	// Uruguay's ccTLD before the change: child NS 300 s, server A 120 s.
	tb.Uy = zone.New(dnswire.NewName("uy"))
	tb.Uy.MustAdd(
		dnswire.NewSOA("uy", 300, "a.nic.uy", "hostmaster.nic.uy", 1, 1800, 900, 604800, 300),
		dnswire.NewNS("uy", 300, "a.nic.uy"),
		dnswire.NewA("a.nic.uy", 120, a(tb.UyAddr)),
	)

	// Chile's ccTLD (Table 1): child NS 3600, server A 43200.
	tb.Cl = zone.New(dnswire.NewName("cl"))
	tb.Cl.MustAdd(
		dnswire.NewSOA("cl", 3600, "a.nic.cl", "hostmaster.nic.cl", 1, 1800, 900, 604800, 3600),
		dnswire.NewNS("cl", 3600, "a.nic.cl"),
		dnswire.NewA("a.nic.cl", 43200, a(tb.ClAddr)),
	)

	// google.co: child NS TTL 345600 (§3.3), served out of bailiwick.
	tb.GoogleCo = zone.New(dnswire.NewName("google.co"))
	tb.GoogleCo.MustAdd(
		dnswire.NewSOA("google.co", 345600, "ns1.google.com", "dns-admin.google.com", 1, 900, 900, 1800, 60),
		dnswire.NewNS("google.co", 345600, "ns1.google.com"),
		dnswire.NewA("google.co", 300, "192.88.99.1"),
	)

	// cachetest.net (§4.1): child TTLs 3600.
	tb.Ct = zone.New(dnswire.NewName("cachetest.net"))
	tb.Ct.MustAdd(
		dnswire.NewSOA("cachetest.net", 3600, "ns1.cachetest.net", "admin.cachetest.net", 1, 7200, 3600, 1209600, 60),
		dnswire.NewNS("cachetest.net", 3600, "ns1.cachetest.net"),
		dnswire.NewA("ns1.cachetest.net", 3600, a(tb.CtAddr)),
		dnswire.NewA("www.cachetest.net", 300, "192.88.99.80"),
	)

	// Controlled-TTL domain (§6.2): unique-name subtrees with 60 s and
	// 86400 s TTLs plus two shared names; the anycast sibling domain
	// carries the shared 60 s name behind the anycast address.
	tb.Mapache = zone.New(dnswire.NewName("mapache-de-madrid.co"))
	tb.Mapache.MustAdd(
		dnswire.NewSOA("mapache-de-madrid.co", 3600, "ns1.mapache-dns.net", "x.mapache-de-madrid.co", 1, 7200, 3600, 1209600, 60),
		dnswire.NewNS("mapache-de-madrid.co", 172800, "ns1.mapache-dns.net"),
		dnswire.NewAAAA("*.u60.mapache-de-madrid.co", 60, "2001:db8:60::1"),
		dnswire.NewAAAA("*.u86400.mapache-de-madrid.co", 86400, "2001:db8:864::1"),
		dnswire.NewAAAA("1.mapache-de-madrid.co", 60, "2001:db8:60::2"),
		dnswire.NewAAAA("2.mapache-de-madrid.co", 86400, "2001:db8:864::2"),
		dnswire.NewAAAA("warmup.mapache-de-madrid.co", 30, "2001:db8::ffff"),
	)
	mapacheDNS := zone.New(dnswire.NewName("mapache-dns.net"))
	mapacheDNS.MustAdd(
		dnswire.NewSOA("mapache-dns.net", 3600, "ns1.mapache-dns.net", "x.mapache-dns.net", 1, 7200, 3600, 1209600, 60),
		dnswire.NewNS("mapache-dns.net", 86400, "ns1.mapache-dns.net"),
		dnswire.NewA("ns1.mapache-dns.net", 86400, a(tb.MapacheAddr)),
		dnswire.NewA("ns-any.mapache-dns.net", 86400, a(tb.MapacheAnycast)),
	)
	mapacheAny := zone.New(dnswire.NewName("mapache-any.co"))
	mapacheAny.MustAdd(
		dnswire.NewSOA("mapache-any.co", 3600, "ns-any.mapache-dns.net", "x.mapache-any.co", 1, 7200, 3600, 1209600, 60),
		dnswire.NewNS("mapache-any.co", 172800, "ns-any.mapache-dns.net"),
		dnswire.NewAAAA("4.mapache-any.co", 60, "2001:db8:60::4"),
		dnswire.NewAAAA("warmup.mapache-any.co", 30, "2001:db8::fffe"),
	)
	tb.MapacheExtra = []*zone.Zone{mapacheDNS, mapacheAny}

	tb.serve(tb.RootAddr, "a.root-servers.net", tb.Root)
	tb.serve(tb.NetAddr, "a.gtld-servers.net", tb.Net_, tb.Com) // gTLD farm serves both
	tb.Net.Attach(tb.ComAddr, tb.Servers[tb.NetAddr])
	tb.Servers[tb.ComAddr] = tb.Servers[tb.NetAddr]
	tb.serve(tb.CoAddr, "ns1.cctld.co", tb.Co)
	tb.serve(tb.UyAddr, "a.nic.uy", tb.Uy)
	tb.serve(tb.ClAddr, "a.nic.cl", tb.Cl)
	tb.serve(tb.CtAddr, "ns1.cachetest.net", tb.Ct)
	tb.serve(tb.GoogleCoAddr, "ns1.google.com", tb.GoogleCo)
	mapacheSrv := tb.serve(tb.MapacheAddr, "ns1.mapache-dns.net", tb.Mapache)
	for _, z := range tb.MapacheExtra {
		mapacheSrv.AddZone(z)
	}
	// The anycast variant fronts the same server and zones.
	tb.Net.Attach(tb.MapacheAnycast, mapacheSrv)
	tb.Servers[tb.MapacheAnycast] = mapacheSrv
}

// ConfigureSub installs the sub.cachetest.net zone (§4.2/§4.3) with either
// an in-bailiwick server (ns3.sub.cachetest.net, glue in the parent) or the
// out-of-bailiwick ns1.zurro-dns.com. NS TTL is 3600, the server address
// record 7200, the probe AAAA 60 — the paper's parameters.
func (tb *Testbed) ConfigureSub(inBailiwick bool) {
	// Reset any previous configuration.
	tb.Ct.Remove(dnswire.NewName("sub.cachetest.net"), dnswire.TypeNS)
	tb.Ct.Remove(dnswire.NewName("ns3.sub.cachetest.net"), dnswire.TypeA)

	tb.Sub = zone.New(dnswire.NewName("sub.cachetest.net"))
	tb.Sub.MustAdd(dnswire.NewSOA("sub.cachetest.net", 3600, "ns3.sub.cachetest.net", "admin.cachetest.net", 1, 7200, 3600, 1209600, 60))
	if inBailiwick {
		tb.Ct.MustAdd(
			dnswire.NewNS("sub.cachetest.net", 3600, "ns3.sub.cachetest.net"),
			dnswire.NewA("ns3.sub.cachetest.net", 7200, tb.SubAddr.String()),
		)
		tb.Sub.MustAdd(
			dnswire.NewNS("sub.cachetest.net", 3600, "ns3.sub.cachetest.net"),
			dnswire.NewA("ns3.sub.cachetest.net", 7200, tb.SubAddr.String()),
		)
	} else {
		tb.Ct.MustAdd(dnswire.NewNS("sub.cachetest.net", 3600, "ns1.zurro-dns.com"))
		tb.Sub.MustAdd(dnswire.NewNS("sub.cachetest.net", 3600, "ns1.zurro-dns.com"))
		// The zurro-dns.com zone answers for its own nameserver address.
		tb.Zurro = zone.New(dnswire.NewName("zurro-dns.com"))
		tb.Zurro.MustAdd(
			dnswire.NewSOA("zurro-dns.com", 3600, "ns1.zurro-dns.com", "x.zurro-dns.com", 1, 7200, 3600, 1209600, 60),
			dnswire.NewNS("zurro-dns.com", 3600, "ns1.zurro-dns.com"),
			dnswire.NewA("ns1.zurro-dns.com", 7200, tb.ZurroAddr.String()),
		)
	}
	// Probe content: the answer that changes when we renumber.
	tb.Sub.MustAdd(dnswire.NewAAAA("*.sub.cachetest.net", 60, "2001:db8::1"))

	// Serve the sub zone from the right place.
	if inBailiwick {
		tb.serve(tb.SubAddr, "ns3.sub.cachetest.net", tb.Sub)
	} else {
		tb.serve(tb.ZurroAddr, "ns1.zurro-dns.com", tb.Zurro, tb.Sub)
	}
}

// RenumberSub performs the §4.2/§4.3 manipulation: the sub zone's server
// moves to SubAddr2 with different probe content. For the in-bailiwick
// setup the parent and child glue change; for out-of-bailiwick the
// A record inside zurro-dns.com changes (as .com dynamic updates did).
func (tb *Testbed) RenumberSub(inBailiwick bool) {
	newSub := zone.New(dnswire.NewName("sub.cachetest.net"))
	newSub.MustAdd(dnswire.NewSOA("sub.cachetest.net", 3600, "ns3.sub.cachetest.net", "admin.cachetest.net", 2, 7200, 3600, 1209600, 60))
	newSub.MustAdd(dnswire.NewAAAA("*.sub.cachetest.net", 60, "2001:db8::2"))
	if inBailiwick {
		newSub.MustAdd(
			dnswire.NewNS("sub.cachetest.net", 3600, "ns3.sub.cachetest.net"),
			dnswire.NewA("ns3.sub.cachetest.net", 7200, tb.SubAddr2.String()),
		)
		tb.serve(tb.SubAddr2, "ns3.sub.cachetest.net", newSub)
		// Parent glue moves too; the old server keeps running with the
		// old content, as the paper's original EC2 VM did.
		if err := tb.Ct.Replace(dnswire.NewName("ns3.sub.cachetest.net"), dnswire.TypeA,
			dnswire.NewA("ns3.sub.cachetest.net", 7200, tb.SubAddr2.String())); err != nil {
			panic(err)
		}
		return
	}
	newSub.MustAdd(dnswire.NewNS("sub.cachetest.net", 3600, "ns1.zurro-dns.com"))
	newZurro := zone.New(dnswire.NewName("zurro-dns.com"))
	newZurro.MustAdd(
		dnswire.NewSOA("zurro-dns.com", 3600, "ns1.zurro-dns.com", "x.zurro-dns.com", 2, 7200, 3600, 1209600, 60),
		dnswire.NewNS("zurro-dns.com", 3600, "ns1.zurro-dns.com"),
		dnswire.NewA("ns1.zurro-dns.com", 7200, tb.SubAddr2.String()),
	)
	tb.serve(tb.SubAddr2, "ns1.zurro-dns.com", newZurro, newSub)
	tb.Topo.Place(tb.SubAddr2, latency.EU)
	// The .com glue is renumbered (the paper verified the dynamic update
	// propagated in seconds); the old VM keeps serving its old zone files.
	if err := tb.Com.Replace(dnswire.NewName("ns1.zurro-dns.com"), dnswire.TypeA,
		dnswire.NewA("ns1.zurro-dns.com", 172800, tb.SubAddr2.String())); err != nil {
		panic(err)
	}
}

// Builder returns a population.Builder over this testbed.
func (tb *Testbed) Builder() *population.Builder {
	return &population.Builder{
		Net:           tb.Net,
		Clock:         tb.Clock,
		RootHints:     []netip.Addr{tb.RootAddr},
		LocalRootZone: tb.Root,
	}
}

// Fleet builds a VP fleet over the testbed.
func (tb *Testbed) Fleet(probes int, mix population.Mix, seed int64) *atlas.Fleet {
	return atlas.NewFleet(atlas.FleetConfig{
		Probes:      probes,
		MultiVPFrac: 0.35,
		SharedFrac:  0.8,
		Mix:         mix,
		Seed:        seed,
	}, tb.Builder(), tb.Topo)
}
