package entrada

import (
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

var (
	r1 = netip.MustParseAddr("203.0.113.1")
	r2 = netip.MustParseAddr("203.0.113.2")
	n1 = dnswire.NewName("ns1.dns.nl")
	n2 = dnswire.NewName("ns2.dns.nl")
)

func at(sec int) time.Time { return simnet.Epoch.Add(time.Duration(sec) * time.Second) }

func TestGroupingAndInterarrivals(t *testing.T) {
	w := NewWarehouse()
	for _, sec := range []int{0, 3600, 3601, 7200} { // burst at 3600/3601
		w.Ingest(Row{Time: at(sec), Resolver: r1, Name: n1, Type: dnswire.TypeA})
	}
	w.Ingest(Row{Time: at(100), Resolver: r1, Name: n2, Type: dnswire.TypeA})
	w.Ingest(Row{Time: at(50), Resolver: r2, Name: n1, Type: dnswire.TypeA})

	if w.Rows() != 6 {
		t.Fatalf("rows = %d", w.Rows())
	}
	groups := w.Groups()
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	g := groups[0] // r1/n1 (sorted by resolver then name)
	if g.Key.Resolver != r1 || g.Key.Name != n1 || g.Queries() != 4 {
		t.Fatalf("group 0 = %+v", g.Key)
	}
	// Unfiltered interarrivals: 3600, 1, 3599.
	if gaps := g.Interarrivals(0); len(gaps) != 3 || gaps[1] != time.Second {
		t.Errorf("gaps = %v", gaps)
	}
	// Filtered ≥2 s: the 1 s retransmission gap drops out.
	if gaps := g.Interarrivals(2 * time.Second); len(gaps) != 2 {
		t.Errorf("filtered gaps = %v", gaps)
	}
	min, ok := g.MinInterarrival(2 * time.Second)
	if !ok || min != 3599*time.Second {
		t.Errorf("min interarrival = %v %v", min, ok)
	}
	if _, ok := groups[2].MinInterarrival(0); ok {
		t.Errorf("single-query group has no interarrival")
	}
}

func TestQueryCountSampleFiltering(t *testing.T) {
	w := NewWarehouse()
	// 3 queries, two of which are a retransmission burst.
	for _, sec := range []int{0, 1, 3600} {
		w.Ingest(Row{Time: at(sec), Resolver: r1, Name: n1})
	}
	raw := w.QueryCountSample(0)
	if raw.Max() != 3 {
		t.Errorf("raw count = %v", raw.Max())
	}
	filtered := w.QueryCountSample(2 * time.Second)
	if filtered.Max() != 2 {
		t.Errorf("filtered count = %v", filtered.Max())
	}
}

func TestCentricityCensus(t *testing.T) {
	w := NewWarehouse()
	// r1 is clearly child-centric: multiple queries for n1.
	w.Ingest(Row{Time: at(0), Resolver: r1, Name: n1})
	w.Ingest(Row{Time: at(3600), Resolver: r1, Name: n1})
	// r1 queried n2 once — but is multi elsewhere.
	w.Ingest(Row{Time: at(0), Resolver: r1, Name: n2})
	// r2 queried once only: parent-centric or simply quiet.
	w.Ingest(Row{Time: at(0), Resolver: r2, Name: n1})

	c := w.CentricityCensus()
	if c.Groups != 3 || c.MultiQuery != 1 || c.SingleQuery != 2 {
		t.Fatalf("census = %+v", c)
	}
	if c.SingleButMultiElsewhere != 1 {
		t.Errorf("SingleButMultiElsewhere = %d, want 1 (r1/n2)", c.SingleButMultiElsewhere)
	}
	if c.UniqueResolvers != 2 {
		t.Errorf("resolvers = %d", c.UniqueResolvers)
	}
	if f := c.FractionMultiQuery(); f < 0.33 || f > 0.34 {
		t.Errorf("multi fraction = %v", f)
	}
	if (Census{}).FractionMultiQuery() != 0 {
		t.Errorf("empty census fraction should be 0")
	}
}

func TestMinInterarrivalSample(t *testing.T) {
	w := NewWarehouse()
	for _, sec := range []int{0, 3600, 7200} {
		w.Ingest(Row{Time: at(sec), Resolver: r1, Name: n1})
	}
	for _, sec := range []int{0, 1800} {
		w.Ingest(Row{Time: at(sec), Resolver: r2, Name: n1})
	}
	s := w.MinInterarrivalSample(2 * time.Second)
	if s.Len() != 2 {
		t.Fatalf("sample = %d", s.Len())
	}
	if s.Min() != 1800 || s.Max() != 3600 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

// TestIngestFromTap feeds the warehouse the way the .nl experiment does:
// rows captured by the simulated network's tap on the way to an
// authoritative server, stamped with the virtual clock.
func TestIngestFromTap(t *testing.T) {
	clock := simnet.NewVirtualClock()
	z := zone.New(dnswire.NewName("dns.nl"))
	z.MustAdd(
		dnswire.NewSOA("dns.nl", 3600, "ns1.dns.nl", "x.dns.nl", 1, 1, 1, 1, 60),
		dnswire.NewA("ns1.dns.nl", 3600, "192.0.2.1"),
		dnswire.NewA("ns2.dns.nl", 3600, "192.0.2.2"),
	)
	srv := authoritative.NewServer(n1, clock)
	srv.AddZone(z)
	srvAddr := netip.MustParseAddr("192.0.2.1")
	net := simnet.NewNetwork(1)
	net.Attach(srvAddr, srv)
	w := NewWarehouse()
	net.Tap = func(ev simnet.TapEvent) {
		q, err := dnswire.Decode(ev.Query)
		if err != nil {
			t.Fatal(err)
		}
		w.Ingest(Row{Time: clock.Now(), Resolver: ev.Src, Name: q.Q().Name, Type: q.Q().Type})
	}

	send := func(name dnswire.Name) {
		q := dnswire.NewIterativeQuery(1, name, dnswire.TypeA)
		wire, _ := dnswire.Encode(q)
		if _, _, err := net.Exchange(r1, srvAddr, wire); err != nil {
			t.Fatal(err)
		}
	}
	send(n1)
	clock.Advance(time.Hour)
	send(n1)
	send(n2)

	if w.Rows() != 3 || srv.QueryCount() != 3 {
		t.Fatalf("ingested %d rows of the %d queries the server counted, want 3 of 3", w.Rows(), srv.QueryCount())
	}
	groups := w.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if min, ok := groups[0].MinInterarrival(0); !ok || min != time.Hour {
		t.Errorf("interarrival from the capture = %v %v", min, ok)
	}
}
