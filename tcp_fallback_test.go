package dnsttl

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

// TestTCPFallback drives the full truncation path over the OS network: a
// plain (non-EDNS) UDP query to a response bigger than 512 bytes comes back
// truncated, and the UDP transport retries it over TCP on the same port —
// where authserver binds its TCP listener — transparently.
func TestTCPFallback(t *testing.T) {
	z := NewZone(NewName("example.org"))
	z.MustAdd(dnswire.NewSOA("example.org", 3600, "ns1.example.org", "x.example.org", 1, 1, 1, 1, 60))
	for i := 0; i < 10; i++ {
		z.MustAdd(dnswire.NewTXT("big.example.org", 60, fmt.Sprintf("%d-%s", i, strings.Repeat("y", 100))))
	}
	srv := NewServer(NewName("ns1.example.org"), nil)
	srv.AddZone(z)
	addr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A classic 512-byte client: no OPT record.
	q := dnswire.NewIterativeQuery(5, NewName("big.example.org"), TypeTXT)
	udp := loopbackNet(t, addr.Port())

	// No TCP listener yet, so the retry is refused: truncated, empty.
	resp, _, err := simnet.Ask(udp, netip.Addr{}, addr.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.TC || len(resp.Answer) != 0 {
		t.Fatalf("expected truncation without a TCP listener: TC=%v answers=%d", resp.Header.TC, len(resp.Answer))
	}

	// With TCP bound on the UDP port the retry returns the full answer.
	if _, err := srv.ListenTCP(addr.String()); err != nil {
		t.Fatalf("binding TCP on the UDP port: %v", err)
	}
	resp, rtt, err := simnet.Ask(udp, netip.Addr{}, addr.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.TC || len(resp.Answer) != 10 {
		t.Fatalf("fallback failed: TC=%v answers=%d", resp.Header.TC, len(resp.Answer))
	}
	if rtt <= 0 {
		t.Errorf("rtt = %v", rtt)
	}
}
