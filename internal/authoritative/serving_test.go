package authoritative

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/simnet"
	"dnsttl/internal/transport"
)

// echoQR answers any query by echoing it with the QR bit set.
var echoQR = simnet.HandlerFunc(func(wire []byte, _ netip.Addr) []byte {
	resp := make([]byte, len(wire))
	copy(resp, wire)
	resp[2] |= 0x80
	return resp
})

// TestTCPServerHandlerDispatch serves a plain simnet.Handler (no *Server)
// over TCP — the recursive front-end path.
func TestTCPServerHandlerDispatch(t *testing.T) {
	ts := &TCPServer{Handler: echoQR}
	addr, err := ts.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	query := make([]byte, 12)
	query[0], query[1] = 0x12, 0x34
	resp, _, err := testClient(t, transport.TCP).Exchange(addr, query)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0] != 0x12 || resp[1] != 0x34 || resp[2]&0x80 == 0 {
		t.Errorf("handler response = %v", resp)
	}
}

// TestTCPServerIdleTimeout checks that a connection that goes quiet is
// closed once the idle deadline passes, instead of pinning its goroutine.
func TestTCPServerIdleTimeout(t *testing.T) {
	ts := &TCPServer{Handler: echoQR, IdleTimeout: 200 * time.Millisecond}
	addr, err := ts.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the server must hang up on its own.
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatalf("expected the server to close the idle connection")
	}
	if waited := time.Since(start); waited < 100*time.Millisecond || waited > 2*time.Second {
		t.Errorf("idle close after %v, want ~200ms", waited)
	}
}

// TestTCPServerMaxConns checks the connection cap: excess connections are
// shed at accept and counted, and capacity frees up when a held connection
// goes away.
func TestTCPServerMaxConns(t *testing.T) {
	ts := &TCPServer{Handler: echoQR, MaxConns: 1, IdleTimeout: 5 * time.Second}
	addr, err := ts.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	// First connection occupies the single slot.
	hold, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	query := make([]byte, 12)
	query[0] = 1
	if _, err := (streamLadderClient{hold}).exchange(query); err != nil {
		t.Fatalf("query on the held connection: %v", err)
	}

	// Second connection must be shed: accepted then closed without service.
	shed, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer shed.Close()
	if _, err := (streamLadderClient{shed}).exchange(query); err == nil {
		t.Fatalf("connection over the cap should be closed, not served")
	}
	if ts.rejected.Value() == 0 {
		t.Errorf("no connection counted as rejected")
	}

	// Releasing the held connection frees the slot.
	hold.Close()
	deadline := time.Now().Add(2 * time.Second)
	client := testClient(t, transport.TCP)
	for {
		resp, _, err := client.Exchange(addr, query)
		if err == nil && len(resp) >= 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after closing the held connection: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDoHServerRoundTrip exercises both RFC 8484 query encodings against
// the plain-HTTP server mode (TLS-terminated DoH is covered by the
// transport e2e tests).
func TestDoHServerRoundTrip(t *testing.T) {
	ds := &DoHServer{Handler: echoQR}
	addr, err := ds.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	query := make([]byte, 12)
	query[0], query[1] = 0xAB, 0xCD

	for _, method := range []string{"POST", "GET"} {
		resp := dohRequest(t, addr, method, query)
		if len(resp) < 12 || resp[0] != 0xAB || resp[1] != 0xCD || resp[2]&0x80 == 0 {
			t.Errorf("%s response = %v", method, resp)
		}
	}

	// Bad requests are rejected, not served.
	r, err := http.Post(fmt.Sprintf("http://%s%s", addr, DoHPath),
		"application/dns-message", bytes.NewReader([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("short query status = %d, want 400", r.StatusCode)
	}
}

// dohRequest sends one wire-format query by POST body or GET ?dns= and
// returns the response body.
func dohRequest(t *testing.T, addr netip.AddrPort, method string, query []byte) []byte {
	t.Helper()
	url := fmt.Sprintf("http://%s%s", addr, DoHPath)
	var resp *http.Response
	var err error
	switch method {
	case "POST":
		resp, err = http.Post(url, "application/dns-message", bytes.NewReader(query))
	case "GET":
		resp, err = http.Get(url + "?dns=" + base64.RawURLEncoding.EncodeToString(query))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s status = %d", method, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/dns-message" {
		t.Errorf("%s content type = %q", method, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
