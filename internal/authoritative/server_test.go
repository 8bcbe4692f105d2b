package authoritative

import (
	"net/netip"
	"path/filepath"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/qlog"
	"dnsttl/internal/simnet"
	"dnsttl/internal/transport"
	"dnsttl/internal/zone"
)

var clientAddr = netip.MustParseAddr("203.0.113.7")

func testServer(t *testing.T) *Server {
	t.Helper()
	z := zone.New(dnswire.NewName("example.org"))
	z.MustAdd(
		dnswire.NewSOA("example.org", 3600, "ns1.example.org", "admin.example.org", 1, 7200, 3600, 1209600, 300),
		dnswire.NewNS("example.org", 172800, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 86400, "192.0.2.1"),
		dnswire.NewA("www.example.org", 300, "192.0.2.80"),
		dnswire.NewCNAME("alias.example.org", 600, "www.example.org"),
		dnswire.NewCNAME("chain.example.org", 600, "alias.example.org"),
		dnswire.NewNS("sub.example.org", 3600, "ns1.sub.example.org"),
		dnswire.NewA("ns1.sub.example.org", 7200, "192.0.2.53"),
	)
	s := NewServer(dnswire.NewName("ns1.example.org"), simnet.NewVirtualClock())
	s.AddZone(z)
	return s
}

func query(t *testing.T, s *Server, name string, typ dnswire.Type) *dnswire.Message {
	t.Helper()
	q := dnswire.NewIterativeQuery(42, dnswire.NewName(name), typ)
	wire, err := dnswire.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	respWire := s.ServeDNS(wire, clientAddr)
	if respWire == nil {
		t.Fatal("nil response")
	}
	resp, err := dnswire.Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 42 || !resp.Header.QR {
		t.Fatalf("bad response header: %+v", resp.Header)
	}
	return resp
}

func TestAuthoritativeAnswer(t *testing.T) {
	s := testServer(t)
	resp := query(t, s, "www.example.org", dnswire.TypeA)
	if !resp.Header.AA {
		t.Errorf("AA must be set on authoritative answers")
	}
	if len(resp.Answer) != 1 || resp.Answer[0].TTL != 300 {
		t.Errorf("answer = %v", resp.Answer)
	}
}

func TestReferralWithGlue(t *testing.T) {
	s := testServer(t)
	resp := query(t, s, "deep.sub.example.org", dnswire.TypeA)
	if resp.Header.AA {
		t.Errorf("referrals must not set AA")
	}
	if !resp.IsReferral() {
		t.Fatalf("expected referral, got %s", resp)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnswire.TypeNS {
		t.Errorf("authority = %v", resp.Authority)
	}
	if len(resp.Additional) != 1 || resp.Additional[0].Name != dnswire.NewName("ns1.sub.example.org") {
		t.Errorf("glue = %v", resp.Additional)
	}
}

func TestNXDomainCarriesSOA(t *testing.T) {
	s := testServer(t)
	resp := query(t, s, "missing.example.org", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeNXDomain || !resp.Header.AA {
		t.Errorf("header = %+v", resp.Header)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnswire.TypeSOA {
		t.Errorf("authority = %v", resp.Authority)
	}
}

func TestNoData(t *testing.T) {
	s := testServer(t)
	resp := query(t, s, "www.example.org", dnswire.TypeMX)
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answer) != 0 {
		t.Errorf("NODATA response wrong: %s", resp)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnswire.TypeSOA {
		t.Errorf("authority = %v", resp.Authority)
	}
}

func TestCNAMEChainFollowed(t *testing.T) {
	s := testServer(t)
	resp := query(t, s, "chain.example.org", dnswire.TypeA)
	// chain → alias → www → A
	if len(resp.Answer) != 3 {
		t.Fatalf("answer = %v", resp.Answer)
	}
	if resp.Answer[0].Type != dnswire.TypeCNAME || resp.Answer[2].Type != dnswire.TypeA {
		t.Errorf("chain order wrong: %v", resp.Answer)
	}
}

func TestCNAMELoopBounded(t *testing.T) {
	z := zone.New(dnswire.NewName("loop.org"))
	z.MustAdd(
		dnswire.NewSOA("loop.org", 60, "ns1.loop.org", "x.loop.org", 1, 1, 1, 1, 1),
		dnswire.NewCNAME("a.loop.org", 60, "b.loop.org"),
		dnswire.NewCNAME("b.loop.org", 60, "a.loop.org"),
	)
	s := NewServer(dnswire.NewName("ns1.loop.org"), nil)
	s.AddZone(z)
	resp := query(t, s, "a.loop.org", dnswire.TypeA)
	if len(resp.Answer) > 2*maxCNAMEChain+2 {
		t.Errorf("CNAME loop not bounded: %d answers", len(resp.Answer))
	}
}

func TestRefusedOutOfZone(t *testing.T) {
	s := testServer(t)
	resp := query(t, s, "example.com", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %s, want REFUSED", resp.Header.RCode)
	}
}

func TestFormErrOnGarbage(t *testing.T) {
	s := testServer(t)
	resp := s.ServeDNS([]byte{0x12, 0x34, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xFF}, clientAddr)
	if resp == nil {
		t.Fatal("expected FORMERR response")
	}
	m, err := dnswire.Decode(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnswire.RCodeFormErr || m.Header.ID != 0x1234 {
		t.Errorf("header = %+v", m.Header)
	}
	if s.ServeDNS([]byte{1, 2, 3}, clientAddr) != nil {
		t.Errorf("tiny garbage should be dropped")
	}
}

func TestNotImpForNonQuery(t *testing.T) {
	s := testServer(t)
	q := dnswire.NewIterativeQuery(1, dnswire.NewName("www.example.org"), dnswire.TypeA)
	q.Header.Opcode = dnswire.OpcodeUpdate
	resp := handler{s: s}.handleInto(new(dnswire.Message), q, clientAddr)
	if resp.Header.RCode != dnswire.RCodeNotImp {
		t.Errorf("rcode = %s", resp.Header.RCode)
	}
}

func TestMostSpecificZoneWins(t *testing.T) {
	s := testServer(t)
	if resp := query(t, s, "host.sub.example.org", dnswire.TypeA); !resp.IsReferral() {
		t.Fatalf("parent alone should refer: %s", resp)
	}
	// Also serve the child zone on the same server: child data must win.
	child := zone.New(dnswire.NewName("sub.example.org"))
	child.MustAdd(
		dnswire.NewSOA("sub.example.org", 60, "ns1.sub.example.org", "x.sub.example.org", 1, 1, 1, 1, 60),
		dnswire.NewNS("sub.example.org", 900, "ns1.sub.example.org"),
		dnswire.NewA("host.sub.example.org", 60, "192.0.2.200"),
	)
	s.AddZone(child)
	resp := query(t, s, "host.sub.example.org", dnswire.TypeA)
	if !resp.Header.AA || len(resp.Answer) != 1 {
		t.Fatalf("child zone not preferred: %s", resp)
	}
	// NS at the cut: child view is authoritative with TTL 900.
	resp = query(t, s, "sub.example.org", dnswire.TypeNS)
	if !resp.Header.AA || len(resp.Answer) != 1 || resp.Answer[0].TTL != 900 {
		t.Errorf("NS at cut = %v", resp.Answer)
	}
}

// claimHook is a PushHook claiming every query for one name.
type claimHook struct{ name dnswire.Name }

func (h claimHook) HandleQuery(q *dnswire.Message, _ netip.Addr) (*dnswire.Message, bool) {
	if q.Q().Name != h.name {
		return nil, false
	}
	return q.Reply(), true
}

// TestQueryLog pins the one exit every reply takes: whichever of its eight
// paths handleInto answers on, the query adds exactly one to QueryCount and
// one response-out record carrying the reply's rcode to the attached query
// log — a transfer the server refuses included, which used to move neither.
// The registry's auth.queries is that same count, also when Instrument
// arrives after traffic has started.
func TestQueryLog(t *testing.T) {
	s := testServer(t)
	s.Push = claimHook{dnswire.NewName("claimed.example.org")}
	path := filepath.Join(t.TempDir(), "auth.jsonl")
	ql, err := qlog.New(qlog.Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	h := handler{s: s, tap: ql.Tap("udp")}

	update := dnswire.NewIterativeQuery(1, dnswire.NewName("www.example.org"), dnswire.TypeA)
	update.Header.Opcode = dnswire.OpcodeUpdate
	ask := func(name string, typ dnswire.Type) *dnswire.Message {
		return dnswire.NewIterativeQuery(1, dnswire.NewName(name), typ)
	}
	cases := []struct {
		path  string
		q     *dnswire.Message
		rcode dnswire.RCode
	}{
		{"answer", ask("www.example.org", dnswire.TypeA), dnswire.RCodeNoError},
		{"nxdomain", ask("nope.example.org", dnswire.TypeA), dnswire.RCodeNXDomain},
		{"referral", ask("deep.sub.example.org", dnswire.TypeA), dnswire.RCodeNoError},
		{"refused, no zone", ask("www.other.org", dnswire.TypeA), dnswire.RCodeRefused},
		{"notimp", update, dnswire.RCodeNotImp},
		{"axfr served", ask("example.org", TypeAXFR), dnswire.RCodeNoError},
		{"axfr refused", ask("other.org", TypeAXFR), dnswire.RCodeRefused},
		{"push-claimed", ask("claimed.example.org", dnswire.TypeA), dnswire.RCodeNoError},
	}
	for i, c := range cases {
		resp := h.handleInto(new(dnswire.Message), c.q, clientAddr)
		if resp.Header.RCode != c.rcode {
			t.Errorf("%s: rcode = %s, want %s", c.path, resp.Header.RCode, c.rcode)
		}
		if got := s.QueryCount(); got != uint64(i+1) {
			t.Fatalf("%s: QueryCount = %d, want %d", c.path, got, i+1)
		}
	}

	reg := obs.NewRegistry(nil)
	s.Instrument(reg)
	h.handleInto(new(dnswire.Message), cases[0].q, clientAddr)
	h.handleInto(new(dnswire.Message), cases[6].q, clientAddr)
	if got, want := reg.Snapshot().Counters[MetricQueries], uint64(len(cases)+2); got != want || s.QueryCount() != want {
		t.Errorf("after a mid-traffic Instrument: auth.queries = %d, QueryCount = %d, want both %d", got, s.QueryCount(), want)
	}
	if got := reg.Snapshot().Counters[MetricRefused]; got != 3 {
		t.Errorf("auth.refused = %d after three refusals, two of them before Instrument, want 3", got)
	}

	if err := ql.Close(); err != nil {
		t.Fatal(err)
	}
	recs, bad, err := qlog.ReadAll(path)
	if err != nil || bad != 0 || len(recs) != len(cases)+2 {
		t.Fatalf("query log: %d records, %d undecodable, err %v; want %d records", len(recs), bad, err, len(cases)+2)
	}
	for i, c := range cases {
		if r := recs[i]; r.RCode != c.rcode || r.Name != c.q.Q().Name || r.Client != clientAddr {
			t.Errorf("%s: logged %+v", c.path, r)
		}
	}
}

func TestZoneAccessor(t *testing.T) {
	s := testServer(t)
	if s.Zone(dnswire.NewName("example.org")) == nil {
		t.Errorf("Zone accessor broken")
	}
	if s.Zone(dnswire.NewName("nope.org")) != nil {
		t.Errorf("unknown zone should be nil")
	}
}

func TestUDPServerIntegration(t *testing.T) {
	s := testServer(t)
	u := &UDPServer{Handler: s}
	addr, err := u.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	q := dnswire.NewIterativeQuery(99, dnswire.NewName("www.example.org"), dnswire.TypeA)
	wire, err := dnswire.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	respWire, rtt, err := testClient(t, transport.UDP).Exchange(addr, wire)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v", rtt)
	}
	resp, err := dnswire.Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 99 || len(resp.Answer) != 1 {
		t.Errorf("udp response = %s", resp)
	}
	if err := u.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
