package dnsttl

import (
	"net/netip"
	"testing"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

// TestRecursiveDaemon chains the whole product over real sockets: an
// authoritative server on loopback, a recursive daemon resolving through
// it, and a stub client querying the daemon — three processes' worth of
// DNS in one test.
func TestRecursiveDaemon(t *testing.T) {
	// Authoritative for root + example.org.
	auth := NewServer(NewName("a.root-servers.net"), nil)
	for origin, text := range map[string]string{".": rootZoneText, "example.org": orgZoneText} {
		z, err := ParseZone(text, NewName(origin))
		if err != nil {
			t.Fatal(err)
		}
		auth.AddZone(z)
	}
	authAddr, err := auth.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer auth.Close()

	client, err := NewClient(ClientConfig{
		Roots: []netip.Addr{authAddr.Addr()},
		Net:   loopbackNet(t, authAddr.Port()),
	})
	if err != nil {
		t.Fatal(err)
	}
	rd := &RecursiveServer{Client: client}
	rdAddr, err := rd.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	// Stub query to the daemon.
	q := dnswire.NewQuery(0xBEEF, NewName("www.example.org"), TypeA)
	stub := loopbackNet(t, rdAddr.Port())
	resp, _, err := simnet.Ask(stub, netip.Addr{}, rdAddr.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.RA {
		t.Fatalf("daemon response header: %+v", resp.Header)
	}
	if len(resp.Answer) != 1 || resp.Answer[0].TTL != 300 {
		t.Fatalf("daemon answer: %v", resp.Answer)
	}

	// Second stub query: served from the daemon's cache.
	if _, _, err := simnet.Ask(stub, netip.Addr{}, rdAddr.Addr(), q); err != nil {
		t.Fatal(err)
	}
	if st := client.CacheStats(); st.Hits == 0 {
		t.Errorf("daemon cache never hit: %+v", st)
	}

	// Garbage in: FORMERR or silence, never a crash.
	if resp := rd.ServeDNS([]byte{1, 2, 3}, netip.Addr{}); resp != nil {
		t.Errorf("tiny garbage should be dropped")
	}
	if resp := rd.ServeDNS(make([]byte, 12), netip.Addr{}); resp == nil {
		t.Errorf("empty-question query should get a response")
	}
}

// TestAXFRLocalRootIntegration mirrors the root zone from a running server
// over AXFR/TCP and resolves with it (the RFC 7706 path of cmd/resolverd).
func TestAXFRLocalRootIntegration(t *testing.T) {
	auth := NewServer(NewName("a.root-servers.net"), nil)
	for origin, text := range map[string]string{".": rootZoneText, "example.org": orgZoneText} {
		z, err := ParseZone(text, NewName(origin))
		if err != nil {
			t.Fatal(err)
		}
		auth.AddZone(z)
	}
	udpAddr, err := auth.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpAddr, err := auth.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer auth.Close()

	tcp := &TransportNet{T: stubTransport(t, TransportTCP), Port: tcpAddr.Port()}
	mirror, err := authoritative.FetchZone(tcp, tcpAddr.Addr(), NewName("."))
	if err != nil {
		t.Fatal(err)
	}
	if mirror.RecordCount() == 0 {
		t.Fatal("empty mirror")
	}
	pol := DefaultPolicy()
	pol.LocalRoot = true
	client, err := NewClient(ClientConfig{
		Policy:    pol,
		Roots:     []netip.Addr{udpAddr.Addr()},
		Net:       loopbackNet(t, udpAddr.Port()),
		LocalRoot: mirror,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Lookup(NewName("www.example.org"), TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Msg.Header.RCode != RCodeNoError || len(res.Msg.Answer) == 0 {
		t.Fatalf("local-root resolution failed: %s", res.Msg.Header.RCode)
	}
	// The root referral came from the mirror: only one upstream query.
	if res.Queries != 1 {
		t.Errorf("queries = %d, want 1 (root from mirror)", res.Queries)
	}
}
