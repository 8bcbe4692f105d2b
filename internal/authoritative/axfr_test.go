package authoritative

import (
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/transport"
)

func TestAXFRRoundTrip(t *testing.T) {
	s := testServer(t)
	ts := &TCPServer{Handler: s.Handler(nil, true)}
	addr, err := ts.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	z, err := FetchZone(transport.NewNet(testClient(t, transport.TCP), addr.Port()), addr.Addr(), dnswire.NewName("example.org"))
	if err != nil {
		t.Fatal(err)
	}
	orig := s.Zone(dnswire.NewName("example.org"))
	if z.RecordCount() != orig.RecordCount() {
		t.Errorf("transferred %d records, want %d", z.RecordCount(), orig.RecordCount())
	}
	// Every original RRset survives with TTLs intact.
	for _, set := range orig.AllSets() {
		got := z.Get(set.Name, set.Type)
		if got == nil || got.TTL != set.TTL || len(got.RRs) != len(set.RRs) {
			t.Errorf("set %s/%s lost or changed in transfer", set.Name, set.Type)
		}
	}
	if _, ok := z.SOA(); !ok {
		t.Errorf("transferred zone has no SOA")
	}
}

func TestAXFRRefusedForUnknownZone(t *testing.T) {
	s := testServer(t)
	ts := &TCPServer{Handler: s.Handler(nil, true)}
	addr, err := ts.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if _, err := FetchZone(transport.NewNet(testClient(t, transport.TCP), addr.Port()), addr.Addr(), dnswire.NewName("other.org")); err == nil {
		t.Errorf("AXFR of unserved zone must fail")
	}
}

func TestAXFRFramingValidation(t *testing.T) {
	// A zone without an SOA cannot be transferred.
	s := testServer(t)
	s.Zone(dnswire.NewName("example.org")).Remove(dnswire.NewName("example.org"), dnswire.TypeSOA)
	q := dnswire.NewIterativeQuery(1, dnswire.NewName("example.org"), TypeAXFR)
	resp := handler{s: s}.handleInto(new(dnswire.Message), q, clientAddr)
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("SOA-less AXFR should SERVFAIL, got %s", resp.Header.RCode)
	}
}
