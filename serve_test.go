package dnsttl

import (
	"crypto/tls"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/race"
)

// upstreamNet is an in-process Exchanger onto one authoritative server,
// over its stream entry point so no answer is truncated on the way to the
// resolver. delay, when set, is how long every exchange really takes — what
// keeps concurrent client queries for one name in flight together.
type upstreamNet struct {
	srv   *authoritative.Server
	delay time.Duration
}

func (n upstreamNet) Exchange(src, _ netip.Addr, query []byte) ([]byte, time.Duration, error) {
	time.Sleep(n.delay)
	return n.srv.Handler(nil, true).ServeDNS(query, src), n.delay, nil
}

// serveFixture is an authoritative server for the root and example.org,
// where example.org also holds h0…h(hosts-1) (one A record each), big (40
// A records, over 512 bytes on the wire) and huge (300, over 4096).
func serveFixture(t *testing.T, hosts int) *authoritative.Server {
	t.Helper()
	var org strings.Builder
	org.WriteString(orgZoneText)
	for i := 0; i < hosts; i++ {
		fmt.Fprintf(&org, "h%d 300 IN A 192.0.2.%d\n", i, i%250+1)
	}
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&org, "big 300 IN A 198.51.100.%d\n", i+1)
	}
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&org, "huge 300 IN A 10.1.%d.%d\n", i/250, i%250+1)
	}
	srv := NewServer(NewName("a.root-servers.net"), nil)
	for origin, text := range map[string]string{".": rootZoneText, "example.org": org.String()} {
		z, err := ParseZone(text, NewName(origin))
		if err != nil {
			t.Fatal(err)
		}
		srv.AddZone(z)
	}
	return srv.s
}

func mustEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	wire, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestServeRaceHammer is the listener-level guard on shared responses: 16
// sockets ask a live UDP daemon for the same uncached name at the same time,
// each with its own transaction ID and RD flag, while the resolutions
// coalesce — so most callers are handed the leader's message. Every reply
// must carry its own ID and RD, and under -race nothing may write to the
// shared message.
func TestServeRaceHammer(t *testing.T) {
	const sockets, rounds = 16, 24
	t.Run("farm coalesce", func(t *testing.T) {
		reg := NewRegistry(nil)
		client, err := NewClient(ClientConfig{
			Frontends: 4,
			Coalesce:  true,
			Roots:     []netip.Addr{netip.MustParseAddr("127.0.0.1")},
			Net:       upstreamNet{srv: serveFixture(t, rounds), delay: 2 * time.Millisecond},
			Registry:  reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		rd := &RecursiveServer{Client: client}
		addr, err := rd.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()

		conns := make([]*net.UDPConn, sockets)
		for i := range conns {
			conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conns[i] = conn
		}
		for round := 0; round < rounds; round++ {
			name := NewName(fmt.Sprintf("h%d.example.org", round))
			var wg sync.WaitGroup
			for i, conn := range conns {
				q := dnswire.NewQuery(uint16(round<<8|i+1), name, TypeA)
				q.Header.RD = i%2 == 0
				wire := mustEncode(t, q)
				wg.Add(1)
				go func(i int, conn *net.UDPConn) {
					defer wg.Done()
					_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
					if _, err := conn.Write(wire); err != nil {
						t.Error(err)
						return
					}
					buf := make([]byte, 512)
					n, err := conn.Read(buf)
					if err != nil {
						t.Errorf("round %d socket %d: %v", round, i, err)
						return
					}
					resp, err := Decode(buf[:n])
					if err != nil {
						t.Errorf("round %d socket %d: %v", round, i, err)
						return
					}
					if resp.Header.ID != q.Header.ID || resp.Header.RD != q.Header.RD {
						t.Errorf("round %d socket %d: reply ID %#04x RD %v, sent ID %#04x RD %v",
							round, i, resp.Header.ID, resp.Header.RD, q.Header.ID, q.Header.RD)
					}
					if !resp.Header.QR || resp.Header.RCode != RCodeNoError ||
						len(resp.Answer) != 1 || resp.Answer[0].Name != name {
						t.Errorf("round %d socket %d: reply %v", round, i, resp)
					}
				}(i, conn)
			}
			wg.Wait()
		}
		if st, _ := client.FarmStats(); st.Total.Coalesced == 0 {
			t.Errorf("no resolution coalesced: the hammer never shared a message")
		}
		if got := reg.Snapshot().Gauges[authoritative.MetricUDPLoops]; got < 2 {
			t.Errorf("%s = %v in the client's registry: concurrent queries never ran on more than one loop",
				authoritative.MetricUDPLoops, got)
		}
	})
}

// TestRecursiveResponseLimit: the daemon bounds a reply by what its
// transport and the query allow — 512 bytes on UDP without an OPT record,
// the advertised size clamped to [512, 4096] with one, and only the 64 KiB
// frame on TCP, DoT and DoH, where a reply is never truncated to a datagram
// size.
func TestRecursiveResponseLimit(t *testing.T) {
	loopback := netip.MustParseAddr("127.0.0.1")
	client, err := NewClient(ClientConfig{
		Roots: []netip.Addr{loopback},
		Net:   upstreamNet{srv: serveFixture(t, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rd := &RecursiveServer{Client: client}
	defer rd.Close()
	ask := func(name string, ednsSize uint16) []byte {
		q := dnswire.NewQuery(0x4242, NewName(name), TypeA)
		if ednsSize > 0 {
			q.AddAdditional(RR{Name: dnswire.Root, Type: dnswire.TypeOPT, Data: dnswire.OPT{UDPSize: ednsSize}})
		}
		return mustEncode(t, q)
	}
	check := func(t *testing.T, wire []byte, truncated bool, answers, maxLen int) {
		t.Helper()
		resp, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != 0x4242 || resp.Header.TC != truncated || len(resp.Answer) != answers || len(wire) > maxLen {
			t.Errorf("reply of %d bytes, TC=%v, %d answers; want at most %d bytes, TC=%v, %d answers",
				len(wire), resp.Header.TC, len(resp.Answer), maxLen, truncated, answers)
		}
	}

	t.Run("udp", func(t *testing.T) {
		addr, err := rd.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// Nothing listens on TCP at this port, so the transport's truncation
		// retry is refused and it hands back the datagram it got.
		stub := stubTransport(t, TransportUDP)
		for _, tc := range []struct {
			name      string
			ednsSize  uint16
			truncated bool
			answers   int
			maxLen    int
		}{
			{"www.example.org", 0, false, 1, 512},
			{"big.example.org", 0, true, 0, 512},   // no OPT: the classic limit
			{"big.example.org", 100, true, 0, 512}, // advertised sizes below 512 are raised to it
			{"big.example.org", 1232, false, 40, 1232},
			{"huge.example.org", 1232, true, 0, 1232},
			{"huge.example.org", 65535, true, 0, 4096}, // advertised sizes above 4096 are cut to it
		} {
			wire, _, err := stub.Exchange(addr, ask(tc.name, tc.ednsSize))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/edns%d", tc.name, tc.ednsSize), func(t *testing.T) {
				check(t, wire, tc.truncated, tc.answers, tc.maxLen)
			})
		}
	})

	cert, pool, err := SelfSignedTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	serverTLS := &tls.Config{Certificates: []tls.Certificate{cert}}
	for _, tc := range []struct {
		kind   TransportKind
		listen func() (netip.AddrPort, error)
	}{
		{TransportTCP, func() (netip.AddrPort, error) { return rd.ListenTCP("127.0.0.1:0") }},
		{TransportDoT, func() (netip.AddrPort, error) { return rd.ListenDoT("127.0.0.1:0", serverTLS) }},
		{TransportDoH, func() (netip.AddrPort, error) { return rd.ListenDoH("127.0.0.1:0", serverTLS) }},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			addr, err := tc.listen()
			if err != nil {
				t.Fatal(err)
			}
			tn, err := NewTransportNet(tc.kind, TransportOptions{
				Port: addr.Port(), Timeout: 5 * time.Second,
				TLS: &tls.Config{RootCAs: pool}, ServerName: "127.0.0.1",
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tn.Close()
			// No OPT and far more than 4096 bytes: a stream carries it whole.
			wire, _, err := tn.Exchange(loopback, loopback, ask("huge.example.org", 0))
			if err != nil {
				t.Fatal(err)
			}
			check(t, wire, false, 300, 0xFFFF)
			if len(wire) <= dnswire.MaxEDNSSize {
				t.Errorf("reply of %d bytes does not exercise the stream limit", len(wire))
			}
		})
	}
}

// TestAppendServeDNSHitAllocs pins the serve path's allocation budget for a
// warm cache hit through the default pipeline, into a caller-owned buffer, at
// zero: the resolution is written into the pooled serving scratch.
func TestAppendServeDNSHitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race, so pooled paths allocate")
	}
	loopback := netip.MustParseAddr("127.0.0.1")
	client, err := NewClient(ClientConfig{
		Roots: []netip.Addr{loopback},
		Net:   upstreamNet{srv: serveFixture(t, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := (&RecursiveServer{Client: client}).handler("direct", false)
	query := mustEncode(t, dnswire.NewQuery(7, NewName("www.example.org"), TypeA))
	buf := make([]byte, 0, 512)
	serve := func() {
		buf = h.AppendServeDNS(buf[:0], query, loopback)
		if len(buf) == 0 {
			t.Fatal("no reply")
		}
	}
	serve() // resolves and caches
	if allocs := testing.AllocsPerRun(1000, serve); allocs > 0 {
		t.Errorf("warm hit through AppendServeDNS: %v allocs, want 0", allocs)
	}
}

// TestFacadesCloseEveryListener: both facades hold one listener set — any
// number of listeners per transport — and one Close leaves no socket open:
// every address they bound can be bound again.
func TestFacadesCloseEveryListener(t *testing.T) {
	cert, _, err := SelfSignedTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	tcfg := &tls.Config{Certificates: []tls.Certificate{cert}}
	loopback := netip.MustParseAddr("127.0.0.1")
	client, err := NewClient(ClientConfig{
		Roots: []netip.Addr{loopback},
		Net:   upstreamNet{srv: serveFixture(t, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	type facade interface {
		ListenUDP(string) (netip.AddrPort, error)
		ListenTCP(string) (netip.AddrPort, error)
		ListenDoT(string, *tls.Config) (netip.AddrPort, error)
		ListenDoH(string, *tls.Config) (netip.AddrPort, error)
		Close() error
	}
	tcp := stubTransport(t, TransportTCP)
	for name, f := range map[string]facade{
		"Server":          &Server{s: serveFixture(t, 0)},
		"RecursiveServer": &RecursiveServer{Client: client},
	} {
		var streams []netip.AddrPort
		listen := func(addr netip.AddrPort, err error) netip.AddrPort {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return addr
		}
		udp := listen(f.ListenUDP("127.0.0.1:0"))
		streams = append(streams,
			listen(f.ListenTCP("127.0.0.1:0")),
			listen(f.ListenTCP("127.0.0.1:0")),
			listen(f.ListenDoT("127.0.0.1:0", tcfg.Clone())),
			listen(f.ListenDoH("127.0.0.1:0", tcfg.Clone())))
		q := mustEncode(t, dnswire.NewQuery(1, NewName("www.example.org"), TypeA))
		for _, addr := range streams[:2] {
			if _, _, err := tcp.Exchange(addr, q); err != nil {
				t.Errorf("%s: tcp listener %s: %v", name, addr, err)
			}
		}
		if err := f.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
		if c, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(udp)); err != nil {
			t.Errorf("%s: udp %s still held after Close: %v", name, udp, err)
		} else {
			c.Close()
		}
		for _, addr := range streams {
			if ln, err := net.Listen("tcp", addr.String()); err != nil {
				t.Errorf("%s: tcp %s still held after Close: %v", name, addr, err)
			} else {
				ln.Close()
			}
		}
		if err := f.Close(); err != nil {
			t.Errorf("%s: second Close: %v", name, err)
		}
	}
}
