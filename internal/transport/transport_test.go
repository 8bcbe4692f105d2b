package transport

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"math"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// echoHandler answers any query by echoing it with QR set — enough for
// transport round-trip tests, which only care about framing, ID handling,
// and connection reuse.
var echoHandler = simnet.HandlerFunc(func(wire []byte, _ netip.Addr) []byte {
	resp := make([]byte, len(wire))
	copy(resp, wire)
	resp[2] |= 0x80
	return resp
})

func encodedQuery(t *testing.T, id uint16) []byte {
	t.Helper()
	q := dnswire.NewQuery(id, dnswire.NewName("www.example.org"), dnswire.TypeA)
	wire, err := dnswire.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestExchangeAllKinds round-trips every transport kind against a real
// server over loopback — UDP, TCP, DoT (verified TLS), DoH (verified
// HTTPS) — and checks that repeated exchanges reuse pooled connections.
func TestExchangeAllKinds(t *testing.T) {
	cert, pool, err := SelfSigned("127.0.0.1", "localhost")
	if err != nil {
		t.Fatal(err)
	}
	serverTLS := &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}

	cases := []struct {
		kind   Kind
		listen func(t *testing.T) netip.AddrPort
		tls    *x509.CertPool
	}{
		{kind: UDP, listen: func(t *testing.T) netip.AddrPort {
			s := &authoritative.UDPServer{Handler: echoHandler}
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return addr
		}},
		{kind: TCP, listen: func(t *testing.T) netip.AddrPort {
			s := &authoritative.TCPServer{Handler: echoHandler}
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return addr
		}},
		{kind: DoT, tls: pool, listen: func(t *testing.T) netip.AddrPort {
			s := &authoritative.TCPServer{Handler: echoHandler, TLS: serverTLS.Clone()}
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return addr
		}},
		{kind: DoH, tls: pool, listen: func(t *testing.T) netip.AddrPort {
			s := &authoritative.DoHServer{Handler: echoHandler, TLS: serverTLS.Clone()}
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return addr
		}},
	}

	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			addr := tc.listen(t)
			reg := obs.NewRegistry(nil)
			m := NewMetrics(reg)
			cfg := Config{Kind: tc.kind, Timeout: 3 * time.Second, Metrics: m}
			if tc.tls != nil {
				cfg.TLS = &tls.Config{RootCAs: tc.tls, MinVersion: tls.VersionTLS12}
			}
			tr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()

			const rounds = 3
			for i := 0; i < rounds; i++ {
				id := 0x3000 + uint16(i)
				resp, rtt, err := tr.Exchange(addr, encodedQuery(t, id))
				if err != nil {
					t.Fatalf("exchange %d: %v", i, err)
				}
				if rtt <= 0 {
					t.Errorf("exchange %d: rtt = %v", i, rtt)
				}
				msg, err := dnswire.Decode(resp)
				if err != nil {
					t.Fatalf("exchange %d: decode: %v", i, err)
				}
				if msg.Header.ID != id {
					t.Errorf("exchange %d: ID = %d, want %d", i, msg.Header.ID, id)
				}
				if !msg.Header.QR {
					t.Errorf("exchange %d: QR not set", i)
				}
			}

			if got := m.Exchanges.Value(); got != rounds {
				t.Errorf("Exchanges = %d, want %d", got, rounds)
			}
			if got := m.Reuses.Value(); got == 0 {
				t.Errorf("Reuses = 0, want > 0 (sequential exchanges must reuse the pooled connection)")
			}
			if got := m.Errors.Value(); got != 0 {
				t.Errorf("Errors = %d, want 0", got)
			}
			if tc.tls != nil {
				if got := m.Handshakes.Value(); got == 0 {
					t.Errorf("Handshakes = 0, want > 0 for %s", tc.kind)
				}
			}
		})
	}
}

// TestUDPTruncationFallsBackToTCP serves TC-bit answers over UDP and full
// answers over TCP on the same port; the UDP transport must retry over TCP
// and return the untruncated response. While nothing listens on the TCP
// port the dial is refused: a TCP exchange fails, and the UDP transport
// serves the truncated answer it has. Either way the fallback is one
// exchange in the metrics: counted once, its RTT histogram entry the RTT the
// caller was charged (both legs), and no error when an answer came back.
func TestUDPTruncationFallsBackToTCP(t *testing.T) {
	truncating := simnet.HandlerFunc(func(wire []byte, _ netip.Addr) []byte {
		resp := make([]byte, len(wire))
		copy(resp, wire)
		resp[2] |= 0x80 | 0x02 // QR + TC
		return resp
	})
	us := &authoritative.UDPServer{Handler: truncating}
	addr, err := us.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()

	reg := obs.NewRegistry(nil)
	m := NewMetrics(reg)
	tr, err := New(Config{Kind: UDP, Timeout: 3 * time.Second, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tcp, err := New(Config{Kind: TCP, Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if _, _, err := tcp.Exchange(addr, encodedQuery(t, 0x0776)); err == nil {
		t.Errorf("TCP exchange with nothing listening should fail")
	}
	var charged float64 // the RTTs the caller was charged, in ms
	resp, rtt, err := tr.Exchange(addr, encodedQuery(t, 0x0778))
	if err != nil {
		t.Fatal(err)
	}
	charged += float64(rtt) / float64(time.Millisecond)
	if msg, err := dnswire.Decode(resp); err != nil || !msg.Header.TC {
		t.Errorf("a refused fallback should return the truncated UDP answer (err=%v)", err)
	}
	if got := m.DialErrors.Value(); got != 1 {
		t.Errorf("DialErrors = %d, want 1 (the refused TCP dial)", got)
	}

	ts := &authoritative.TCPServer{Handler: echoHandler}
	if _, err := ts.Listen(fmt.Sprintf("127.0.0.1:%d", addr.Port())); err != nil {
		t.Fatalf("binding TCP on the UDP port: %v", err)
	}
	defer ts.Close()

	resp, rtt, err = tr.Exchange(addr, encodedQuery(t, 0x0777))
	if err != nil {
		t.Fatal(err)
	}
	charged += float64(rtt) / float64(time.Millisecond)
	msg, err := dnswire.Decode(resp)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.TC {
		t.Errorf("response still truncated — TCP fallback did not happen")
	}
	if msg.Header.ID != 0x0777 {
		t.Errorf("ID = %d, want %d", msg.Header.ID, 0x0777)
	}
	if got := m.TCPFallbacks.Value(); got != 2 {
		t.Errorf("TCPFallbacks = %d, want 2", got)
	}
	if ex, errs := m.Exchanges.Value(), m.Errors.Value(); ex != 2 || errs != 0 {
		t.Errorf("Exchanges = %d, Errors = %d; want 2 and 0 (a fallback is part of its exchange)", ex, errs)
	}
	if h := m.RTT.Snapshot(); h.Count != 2 || math.Abs(h.Sum-charged) > 1e-9 {
		t.Errorf("RTT histogram holds %d observations summing to %v ms, want 2 summing to the %v ms charged", h.Count, h.Sum, charged)
	}
}

// TestKindText covers the -transport spelling table: every kind round-trips
// through MarshalText/UnmarshalText and String agrees, an unknown or retired
// spelling fails naming the accepted ones, and an out-of-range kind prints
// as itself.
func TestKindText(t *testing.T) {
	for _, k := range []Kind{UDP, TCP, DoT, DoH} {
		b, err := k.MarshalText()
		var got Kind
		if err != nil || got.UnmarshalText(b) != nil || got != k || string(b) != k.String() {
			t.Errorf("%v: MarshalText = %q, %v; back %v", k, b, err, got)
		}
	}
	for _, in := range []string{"carrier-pigeon", "tls", "https", "UDP", ""} {
		var k Kind
		if err := k.UnmarshalText([]byte(in)); err == nil || !strings.Contains(err.Error(), `"udp" "tcp" "dot" "doh"`) {
			t.Errorf("UnmarshalText(%q) = %v, want an error naming the spellings", in, err)
		}
	}
	if got := Kind(7).String(); got != "Kind(7)" {
		t.Errorf("Kind(7).String() = %q", got)
	}
	ports := map[Kind]uint16{UDP: 53, TCP: 53, DoT: 853, DoH: 443}
	for k, want := range ports {
		if got := k.DefaultPort(); got != want {
			t.Errorf("%v.DefaultPort() = %d, want %d", k, got, want)
		}
	}
}

// TestDoTVerificationFailsWithoutTrust checks that DoT against a
// self-signed server fails closed unless the certificate is trusted or
// Insecure is set.
func TestDoTVerificationFailsWithoutTrust(t *testing.T) {
	cert, _, err := SelfSigned("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	s := &authoritative.TCPServer{Handler: echoHandler,
		TLS: &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	strict, err := New(Config{Kind: DoT, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	if _, _, err := strict.Exchange(addr, encodedQuery(t, 1)); err == nil {
		t.Errorf("DoT against an untrusted cert must fail verification")
	}

	insecure, err := New(Config{Kind: DoT, Timeout: 2 * time.Second, Insecure: true})
	if err != nil {
		t.Fatal(err)
	}
	defer insecure.Close()
	if _, _, err := insecure.Exchange(addr, encodedQuery(t, 2)); err != nil {
		t.Errorf("DoT with Insecure should succeed: %v", err)
	}
}

// echoAppend is echoHandler in the append form, so a listener's serving loop
// answers without allocating.
type echoAppend struct{}

func (echoAppend) ServeDNS(wire []byte, from netip.Addr) []byte { return echoHandler(wire, from) }

func (echoAppend) AppendServeDNS(dst, wire []byte, _ netip.Addr) []byte {
	dst = append(dst, wire...)
	dst[len(dst)-len(wire)+2] |= 0x80
	return dst
}

// TestUDPAppendExchangeAllocFree pins a live UDP exchange through Net at zero
// allocations when the caller reuses its reply buffer: the reply is appended
// straight from the pooled socket's read buffer. AllocsPerRun counts every
// goroutine, so the listener's serving loop is included.
func TestUDPAppendExchangeAllocFree(t *testing.T) {
	us := &authoritative.UDPServer{Handler: echoAppend{}}
	addr, err := us.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	tr, err := New(Config{Kind: UDP, Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	n := NewNet(tr, addr.Port())
	defer n.Close()
	query := encodedQuery(t, 0x0A11)
	buf := make([]byte, 0, 512)
	exchange := func() {
		out, _, err := n.AppendExchange(buf[:0], netip.Addr{}, addr.Addr(), query, 0)
		if err != nil || len(out) != len(query) || &out[0] != &buf[:1][0] {
			t.Fatalf("exchange: %d bytes, err %v; want the echo in the caller's buffer", len(out), err)
		}
	}
	exchange() // dials the pooled socket and starts the spare serving loop
	if allocs := testing.AllocsPerRun(500, exchange); allocs != 0 {
		t.Errorf("UDP append exchange with a reused buffer: %v allocs, want 0", allocs)
	}
}
