package experiments

import (
	"context"
	"net/netip"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/workload"
	"dnsttl/internal/zone"
)

// zipfWorld is the two-zone testbed of the cache experiments: a root
// delegating example.org, which holds the names of a Zipf/Poisson workload
// at one TTL, each zone on its own server so that authoritative query
// volume can be attributed.
type zipfWorld struct {
	clock             *simnet.VirtualClock
	net               *simnet.Network
	rootAddr, orgAddr netip.Addr
	rootSrv, orgSrv   *authoritative.Server
	gen               *workload.Generator
}

// zipfPlan is what tells one experiment's world from another's: its servers
// live at 192.88.<subnet>.1 and .2, and name j resolves to
// 198.<recordNet>.<j>.
type zipfPlan struct{ subnet, recordNet byte }

// record is the A record of the workload's name j, as the zone serves it.
func (p zipfPlan) record(n dnswire.Name, j int, ttl uint32) dnswire.RR {
	return dnswire.RR{Name: n, Type: dnswire.TypeA, Class: dnswire.ClassIN,
		TTL: ttl, Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{198, p.recordNet, byte(j >> 8), byte(j)})}}
}

// newZipfWorld builds the world: names Zipf(s=1) names at ttl, queried at
// qps. netSeed seeds the network, genSeed the arrival stream.
func newZipfWorld(plan zipfPlan, names int, ttl uint32, qps float64, netSeed, genSeed int64) *zipfWorld {
	w := &zipfWorld{
		clock:    simnet.NewVirtualClock(),
		net:      simnet.NewNetwork(netSeed),
		rootAddr: netip.AddrFrom4([4]byte{192, 88, plan.subnet, 1}),
		orgAddr:  netip.AddrFrom4([4]byte{192, 88, plan.subnet, 2}),
	}
	root := zone.New(dnswire.Root)
	root.MustAdd(
		dnswire.NewSOA(".", 86400, "a.root-servers.net.", "x.example.", 1, 1, 1, 1, 86400),
		dnswire.NewNS(".", 518400, "a.root-servers.net"),
		dnswire.NewA("a.root-servers.net", 518400, w.rootAddr.String()),
		dnswire.NewNS("example.org", 172800, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 172800, w.orgAddr.String()),
	)
	org := zone.New(dnswire.NewName("example.org"))
	org.MustAdd(
		dnswire.NewSOA("example.org", 3600, "ns1.example.org", "x.example.org", 1, 1, 1, 1, 60),
		dnswire.NewNS("example.org", 86400, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 86400, w.orgAddr.String()),
	)
	w.gen = workload.New(dnswire.NewName("example.org"), names, 1.0, qps, genSeed)
	for j, n := range w.gen.Names {
		org.MustAdd(plan.record(n, j, ttl))
	}
	w.rootSrv = authoritative.NewServer(dnswire.NewName("a.root-servers.net"), w.clock)
	w.rootSrv.AddZone(root)
	w.net.Attach(w.rootAddr, w.rootSrv)
	w.orgSrv = authoritative.NewServer(dnswire.NewName("ns1.example.org"), w.clock)
	w.orgSrv.AddZone(org)
	w.net.Attach(w.orgAddr, w.orgSrv)
	return w
}

// replay draws queries arrivals from the workload, advancing the clock to
// each and resolving it through r into one lent Result. It reports how many
// were answered NOERROR and how many of those from cache.
func (w *zipfWorld) replay(r resolver.Lookuper, queries int) (hits, answered int) {
	ctx, scratch := context.Background(), new(resolver.Result)
	for q := 0; q < queries; q++ {
		gap, name := w.gen.Next()
		w.clock.Advance(gap)
		out, err := r.ResolveInto(ctx, scratch, name, dnswire.TypeA)
		if err != nil || out.Msg.Header.RCode != dnswire.RCodeNoError {
			continue
		}
		answered++
		if out.CacheHit {
			hits++
		}
	}
	return hits, answered
}

// tapDecode decodes wire into m, a Message its network tap keeps across
// calls, and reports whether dnswire.Decode would accept wire. The pooled
// Decoder is warm — most likely the one the authoritative just decoded the
// same query with — so a tap that reads every exchange of its cell
// allocates nothing per message.
func tapDecode(m *dnswire.Message, wire []byte) bool {
	d := dnswire.AcquireDecoder()
	err := d.Decode(wire, m)
	dnswire.ReleaseDecoder(d)
	return err == nil
}
