package dnsttl

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

// stallNet is an upstream that stops answering on demand: while stalled,
// every exchange reports that it started and waits until release, then
// times out, the way an authoritative that never answers holds a query for
// its whole timeout. Otherwise it passes the exchange to next, or times out
// at once when next is nil.
type stallNet struct {
	next    Exchanger
	stalled atomic.Bool
	waiting chan struct{}
	release func()
	done    chan struct{}
}

func newStallNet(t *testing.T, next Exchanger) *stallNet {
	n := &stallNet{next: next, waiting: make(chan struct{}, 1), done: make(chan struct{})}
	n.release = sync.OnceFunc(func() { close(n.done) })
	t.Cleanup(n.release)
	return n
}

func (n *stallNet) Exchange(src, dst netip.Addr, query []byte) ([]byte, time.Duration, error) {
	if n.stalled.Load() {
		select {
		case n.waiting <- struct{}{}:
		default: // a retry: the test only waits for the first
		}
		<-n.done
		return nil, 0, simnet.ErrTimeout
	}
	if n.next == nil {
		return nil, 0, simnet.ErrTimeout
	}
	return n.next.Exchange(src, dst, query)
}

// warmDaemon is a recursive daemon on loopback UDP over upstream, with
// h0.example.org already in its cache.
func warmDaemon(t *testing.T, upstream Exchanger) (*RecursiveServer, netip.AddrPort) {
	t.Helper()
	client, err := NewClient(ClientConfig{Roots: []netip.Addr{netip.MustParseAddr("127.0.0.1")}, Net: upstream})
	if err != nil {
		t.Fatal(err)
	}
	rd := &RecursiveServer{Client: client}
	addr, err := rd.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	if got := queryA(t, addr, "h0.example.org"); got != "192.0.2.1" {
		t.Fatalf("warm-up answer %q", got)
	}
	return rd, addr
}

// askWithin sends q to addr from a socket of its own and fails unless the
// reply arrives within limit.
func askWithin(t *testing.T, addr netip.AddrPort, q *Message, limit time.Duration) {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if err := conn.SetDeadline(start.Add(limit)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(mustEncode(t, q)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no reply within %v: %v", limit, err)
	}
	resp, err := Decode(buf[:n])
	if err != nil || resp.Header.ID != q.Header.ID || len(resp.Answer) == 0 {
		t.Fatalf("reply after %v: %v, %v", time.Since(start), resp, err)
	}
}

// sendFrom sends q to addr from a fresh socket, which it returns.
func sendFrom(t *testing.T, addr netip.AddrPort, q *Message) *net.UDPConn {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(mustEncode(t, q)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestUDPCachedAnswerWhileMissWaits: while one client's miss waits on an
// authoritative that never answers, a cached name asked from another
// socket is answered at once — the miss gave the socket to another loop.
func TestUDPCachedAnswerWhileMissWaits(t *testing.T) {
	up := newStallNet(t, upstreamNet{srv: serveFixture(t, 2)})
	_, addr := warmDaemon(t, up)
	up.stalled.Store(true)
	missed := sendFrom(t, addr, dnswire.NewQuery(1, NewName("h1.example.org"), TypeA))
	<-up.waiting
	askWithin(t, addr, dnswire.NewQuery(2, NewName("h0.example.org"), TypeA), 100*time.Millisecond)

	// Once the upstream gives up, the miss is answered too.
	up.release()
	if err := missed.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	n, err := missed.Read(buf)
	if err != nil {
		t.Fatalf("the waiting miss was never answered: %v", err)
	}
	if resp, err := Decode(buf[:n]); err != nil || resp.Header.ID != 1 || resp.Header.RCode != RCodeServFail {
		t.Errorf("reply to the miss: %v, %v; want SERVFAIL", resp, err)
	}
}

// TestUDPCachedAnswerWhileNotifyPullWaits: a NOTIFY makes a subscribed daemon
// pull the zone from a primary that never answers; meanwhile a cached name
// asked from another socket is answered at once — the NOTIFY gave the
// socket to another loop before the pull.
func TestUDPCachedAnswerWhileNotifyPullWaits(t *testing.T) {
	rd, addr := warmDaemon(t, upstreamNet{srv: serveFixture(t, 1)})
	primary := newStallNet(t, nil)
	sub := rd.EnablePush(PushConfig{Port: addr.Port(), Net: primary})
	origin := NewName("example.org")
	sub.Subscribe(origin, netip.MustParseAddr("127.0.0.2"))
	primary.stalled.Store(true)

	notify := &Message{
		Header:   dnswire.Header{ID: 1, Opcode: dnswire.OpcodeNotify, AA: true},
		Question: []dnswire.Question{{Name: origin, Type: dnswire.TypeSOA, Class: dnswire.ClassIN}},
	}
	notify.AddAnswer(dnswire.NewSOA("example.org", 3600, "ns1.example.org", "admin.example.org", 2, 7200, 3600, 1209600, 300))
	sendFrom(t, addr, notify)
	<-primary.waiting
	askWithin(t, addr, dnswire.NewQuery(2, NewName("h0.example.org"), TypeA), 100*time.Millisecond)
}

// TestYieldReachesOnlyItsListener: a UDP listener's yield rides in the
// context of the queries it serves, so only its own misses call it — not a
// miss served by another listener, nor an in-process lookup.
func TestYieldReachesOnlyItsListener(t *testing.T) {
	client, err := NewClient(ClientConfig{
		Roots: []netip.Addr{netip.MustParseAddr("127.0.0.1")},
		Net:   upstreamNet{srv: serveFixture(t, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := &RecursiveServer{Client: client}
	udp := rs.handler("udp", false)
	calls := 0
	udp.BindYield(func() { calls++ })
	from := netip.MustParseAddr("192.0.2.99")
	ask := func(h transportHandler, name string) {
		t.Helper()
		q := mustEncode(t, dnswire.NewQuery(1, NewName(name), TypeA))
		if len(h.AppendServeDNS(nil, q, from)) == 0 {
			t.Fatalf("%s: no reply", name)
		}
	}
	check := func(what string, want int) {
		t.Helper()
		if calls != want {
			t.Errorf("after %s: the UDP listener's yield ran %d times, want %d", what, calls, want)
		}
	}

	ask(rs.handler("tcp", true), "h0.example.org")
	check("a miss through the TCP handler", 0)
	if _, err := client.Lookup(NewName("h1.example.org"), TypeA); err != nil {
		t.Fatal(err)
	}
	check("an in-process Client.Lookup miss", 0)
	ask(udp, "h2.example.org")
	check("the UDP handler's own miss", 1)
}
