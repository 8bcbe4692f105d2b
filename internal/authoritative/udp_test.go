package authoritative

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// udpClient is a connected stub socket with a generous read deadline.
func udpClient(t *testing.T, addr netip.AddrPort) *net.UDPConn {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// headerQuery is a header-only datagram carrying id; echoQR-style handlers answer
// it with the same ID, which is how replies are told apart.
func headerQuery(id byte) []byte {
	q := make([]byte, 12)
	q[1] = id
	return q
}

func readID(t *testing.T, conn *net.UDPConn) byte {
	t.Helper()
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n < 12 || buf[2]&0x80 == 0 {
		t.Fatalf("not a response: %v", buf[:n])
	}
	return buf[1]
}

// gatedHandler blocks every query whose ID is in gates until that gate is
// closed, and reports each query as it enters service.
type gatedHandler struct {
	gates   map[byte]chan struct{}
	entered chan byte
}

func (g *gatedHandler) ServeDNS(wire []byte, from netip.Addr) []byte {
	id := wire[1]
	g.entered <- id
	if gate, ok := g.gates[id]; ok {
		<-gate
	}
	return echoQR(wire, from)
}

// TestUDPLoopGrowth pins the three guarantees of the serving loops: a
// blocked handler does not leave the socket unread, at most MaxInflight
// queries are in service, and Close waits for the ones that are.
func TestUDPLoopGrowth(t *testing.T) {
	g := &gatedHandler{
		gates:   map[byte]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})},
		entered: make(chan byte, 8), // never blocks the handler: more than the queries sent
	}
	u := &UDPServer{Handler: g, MaxInflight: 2}
	addr, err := u.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := udpClient(t, addr)
	send := func(id byte) {
		t.Helper()
		if _, err := conn.Write(headerQuery(id)); err != nil {
			t.Fatal(err)
		}
	}

	// Query 1 blocks in its handler; query 2, on the same socket, is still
	// picked up (and blocks too).
	send(1)
	if id := <-g.entered; id != 1 {
		t.Fatalf("first query in service = %d", id)
	}
	send(2)
	if id := <-g.entered; id != 2 {
		t.Fatalf("second query in service = %d", id)
	}
	if loops, sat := u.loops.Load(), u.saturated.Value(); loops != 2 || sat != 1 {
		t.Errorf("with both loops busy: %d loops, saturated %d, want 2 loops, saturated once", loops, sat)
	}

	// Both loops are busy: query 3 waits in the socket buffer.
	send(3)
	select {
	case id := <-g.entered:
		t.Fatalf("query %d entered service beyond MaxInflight", id)
	case <-time.After(100 * time.Millisecond):
	}
	close(g.gates[1])
	if id := readID(t, conn); id != 1 {
		t.Fatalf("reply %d, want 1", id)
	}
	if id := <-g.entered; id != 3 {
		t.Fatalf("query after a slot freed = %d, want 3", id)
	}
	if id := readID(t, conn); id != 3 {
		t.Fatalf("reply %d, want 3", id)
	}

	// Close returns only once the still-blocked query 2 has finished.
	closed := make(chan error, 1)
	go func() { closed <- u.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still blocked")
	case <-time.After(100 * time.Millisecond):
	}
	close(g.gates[2])
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the last handler finished")
	}
}

// TestUDPLoopsServeConcurrently hammers one listener from many sockets: every
// query gets its own reply, and the loops stay in proportion to the clients:
// a closed-loop client can have its next query picked up while the loop that
// wrote its last reply has not yet gone back to reading, so two loops each
// and the spare reader is the ceiling.
func TestUDPLoopsServeConcurrently(t *testing.T) {
	reg := obs.NewRegistry(nil)
	u := &UDPServer{Handler: echoQR, Registry: reg}
	addr, err := u.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	const clients, rounds = 8, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		conn := udpClient(t, addr)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := 0; i < rounds; i++ {
				q := headerQuery(byte(i))
				q[0] = byte(c)
				if _, err := conn.Write(q); err != nil {
					t.Error(err)
					return
				}
				n, err := conn.Read(buf)
				if err != nil || n != 12 || buf[0] != byte(c) || buf[1] != byte(i) {
					t.Errorf("client %d round %d: reply %v, err %v", c, i, buf[:n], err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	loops, sat, errs := u.loops.Load(), u.saturated.Value(), u.readErrors.Value()
	if loops < 1 || loops > 2*clients+1 || sat != 0 || errs != 0 {
		t.Errorf("after %d closed-loop clients: %d loops, saturated %d, %d read errors", clients, loops, sat, errs)
	}
	if got := reg.Snapshot().Gauges[MetricUDPLoops]; got != float64(loops) {
		t.Errorf("%s gauge = %v, the listener started %d loops", MetricUDPLoops, got, loops)
	}
}

// TestUDPClientAddrUnmapped: a dual-stack socket reports IPv4 clients as
// ::ffff:a.b.c.d; handlers must see the plain IPv4 address, which the rate
// limiters' prefix4 aggregation keys on.
func TestUDPClientAddrUnmapped(t *testing.T) {
	seen := make(chan netip.Addr, 1)
	u := &UDPServer{Handler: simnet.HandlerFunc(func(wire []byte, from netip.Addr) []byte {
		seen <- from
		return echoQR(wire, from)
	})}
	addr, err := u.Listen(":0") // unspecified address: dual-stack where the host allows
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	conn := udpClient(t, netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), addr.Port()))
	if _, err := conn.Write(headerQuery(7)); err != nil {
		t.Fatal(err)
	}
	if id := readID(t, conn); id != 7 {
		t.Fatalf("reply %d, want 7", id)
	}
	if from := <-seen; !from.Is4() {
		t.Errorf("handler saw client %v, want an unmapped IPv4 address", from)
	}
}

// TestUDPReadErrorBackoff: a read error that is not the listener closing is
// counted and backed off from, not spun on, and serving resumes once it
// clears. An expired read deadline is such an error.
func TestUDPReadErrorBackoff(t *testing.T) {
	u := &UDPServer{Handler: echoQR}
	addr, err := u.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.conn.SetReadDeadline(time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	time.Sleep(100 * time.Millisecond)
	if err := u.conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	failing := time.Since(start)
	errs := u.readErrors.Value()
	if limit := uint64(failing/readErrorBackoff) + 2; errs == 0 || errs > limit {
		t.Errorf("%d read errors in %v, want between 1 and %d", errs, failing, limit)
	}
	conn := udpClient(t, addr)
	if _, err := conn.Write(headerQuery(9)); err != nil {
		t.Fatal(err)
	}
	if id := readID(t, conn); id != 9 {
		t.Fatalf("reply %d after the error cleared, want 9", id)
	}
}

// cannedAppend answers like echoQR without allocating.
type cannedAppend struct{}

func (cannedAppend) ServeDNS(wire []byte, from netip.Addr) []byte { return echoQR(wire, from) }

func (cannedAppend) AppendServeDNS(dst, wire []byte, _ netip.Addr) []byte {
	dst = append(dst, wire...)
	dst[len(dst)-len(wire)+2] |= 0x80
	return dst
}

// TestUDPLoopAllocFree pins the listener's own cost: read, dispatch to an
// AppendHandler and write allocate nothing. (AllocsPerRun counts every
// goroutine's allocations, so the serving loop is included.)
func TestUDPLoopAllocFree(t *testing.T) {
	u := &UDPServer{Handler: cannedAppend{}}
	addr, err := u.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	conn := udpClient(t, addr)
	q := headerQuery(1)
	buf := make([]byte, 512)
	roundTrip := func() {
		if _, err := conn.Write(q); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // starts the spare loop
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Errorf("UDP round trip through the serving loop: %v allocs, want 0", allocs)
	}
}
