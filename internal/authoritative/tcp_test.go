package authoritative

import (
	"fmt"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
	"dnsttl/internal/transport"
)

func TestTCPServerIntegration(t *testing.T) {
	s := testServer(t)
	ts := &TCPServer{Handler: s.Handler(nil, true)}
	addr, err := ts.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	q := dnswire.NewIterativeQuery(7, dnswire.NewName("www.example.org"), dnswire.TypeA)
	wire, err := dnswire.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	respWire, rtt, err := testClient(t, transport.TCP).Exchange(addr, wire)
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
	if resp.Header.ID != 7 || len(resp.Answer) != 1 {
		t.Errorf("tcp response = %s", resp)
	}
	if err := ts.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestUDPTruncationRespectsEDNS(t *testing.T) {
	// A zone with enough TXT data to exceed 512 bytes.
	s := testServer(t)
	z := s.Zone(dnswire.NewName("example.org"))
	for i := 0; i < 10; i++ {
		z.MustAdd(dnswire.NewTXT("big.example.org", 60, fmt.Sprintf("%d-%s", i, strings.Repeat("x", 100))))
	}
	ask := func(withOPT bool) *dnswire.Message {
		q := dnswire.NewIterativeQuery(3, dnswire.NewName("big.example.org"), dnswire.TypeTXT)
		if withOPT {
			q.AddAdditional(dnswire.RR{Name: dnswire.Root, Type: dnswire.TypeOPT,
				Data: dnswire.OPT{UDPSize: 4096}})
		}
		wire, err := dnswire.Encode(q)
		if err != nil {
			t.Fatal(err)
		}
		respWire := s.ServeDNS(wire, clientAddr)
		resp, err := dnswire.Decode(respWire)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	plain := ask(false)
	if !plain.Header.TC || len(plain.Answer) != 0 {
		t.Errorf("non-EDNS query over 512 bytes must truncate: TC=%v answers=%d",
			plain.Header.TC, len(plain.Answer))
	}
	edns := ask(true)
	if edns.Header.TC || len(edns.Answer) == 0 {
		t.Errorf("EDNS query should fit: TC=%v answers=%d", edns.Header.TC, len(edns.Answer))
	}
}

// failingListener fails every Accept with EMFILE, fails times in all, and
// then reports itself closed.
type failingListener struct {
	net.Listener
	fails int
}

func (l *failingListener) Accept() (net.Conn, error) {
	if l.fails == 0 {
		return nil, net.ErrClosed
	}
	l.fails--
	return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
}

// TestTCPAcceptErrorBackoff: an accept error other than the listener
// closing (a process out of descriptors) is counted and backed off from,
// not spun on.
func TestTCPAcceptErrorBackoff(t *testing.T) {
	const fails = 10
	reg := obs.NewRegistry(nil)
	ts := &TCPServer{Handler: echoQR, Registry: reg}
	addr, err := ts.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	start := time.Now()
	ts.wg.Add(1)
	ts.serve(&failingListener{fails: fails}, simnet.AsAppendHandler(echoQR), 0)
	if took := time.Since(start); took < fails*readErrorBackoff {
		t.Errorf("%d failed accepts took %v, want at least %v", fails, took, fails*readErrorBackoff)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[MetricTCPAcceptErrors]; got != fails {
		t.Errorf("%s = %d, want %d", MetricTCPAcceptErrors, got, fails)
	}
	if _, ok := snap.Counters[MetricTCPRejected]; !ok {
		t.Errorf("%s not published", MetricTCPRejected)
	}
	// The listener Listen bound still serves.
	if _, _, err := testClient(t, transport.TCP).Exchange(addr, headerQuery(1)); err != nil {
		t.Errorf("exchange after the failing loop: %v", err)
	}
}
