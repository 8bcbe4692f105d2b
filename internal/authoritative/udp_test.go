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

// hammer runs clients closed-loop sockets against addr, 200 queries each,
// and checks that every query gets its own reply.
func hammer(t *testing.T, addr netip.AddrPort, clients int) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		conn := udpClient(t, addr)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := 0; i < 200; i++ {
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
}

// inlineHandler answers like echoQR and declares that it never waits: it
// ignores the yield a UDP listener binds.
type inlineHandler struct{ cannedAppend }

func (inlineHandler) BindYield(func()) {}

// TestUDPNeverWaitingHandlerKeepsOneLoop: a handler that never yields is
// served entirely on the loop that read each datagram, so however many
// closed-loop clients hammer it, the listener runs one loop and hands its
// socket to nobody.
func TestUDPNeverWaitingHandlerKeepsOneLoop(t *testing.T) {
	reg := obs.NewRegistry(nil)
	u := &UDPServer{Handler: inlineHandler{}, Registry: reg}
	addr, err := u.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	const clients = 8
	hammer(t, addr, clients)
	snap := reg.Snapshot()
	if loops, sat := snap.Gauges[MetricUDPLoops], snap.Counters[MetricUDPSaturated]; loops != 1 || sat != 0 {
		t.Errorf("after %d closed-loop clients: %s = %v, %s = %d; want 1 loop, never saturated",
			clients, MetricUDPLoops, loops, MetricUDPSaturated, sat)
	}
}

// yieldingHandler declares when it waits: a query whose ID has a gate
// yields, reports that it entered service and blocks until the gate
// closes; any other query is answered at once.
type yieldingHandler struct {
	yield   func()
	gates   map[byte]chan struct{}
	entered chan byte
}

func (y *yieldingHandler) BindYield(yield func()) { y.yield = yield }

func (y *yieldingHandler) ServeDNS(wire []byte, from netip.Addr) []byte {
	if gate, ok := y.gates[wire[1]]; ok {
		y.yield()
		y.entered <- wire[1]
		<-gate
	}
	return echoQR(wire, from)
}

// TestUDPYieldHandsOffSocket walks the hand-over: a query that yields goes
// on waiting in its own loop while a new loop takes the socket and answers
// the next query inline; a yield while the reading loop is not in service
// starts nothing; once the waiting query is answered its loop parks, and the
// next yield wakes it instead of starting a third.
func TestUDPYieldHandsOffSocket(t *testing.T) {
	y := &yieldingHandler{
		gates:   map[byte]chan struct{}{1: make(chan struct{}), 4: make(chan struct{})},
		entered: make(chan byte, 4),
	}
	u := &UDPServer{Handler: y}
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
	want := func(id byte) {
		t.Helper()
		if got := readID(t, conn); got != id {
			t.Fatalf("reply %d, want %d", got, id)
		}
	}
	loops := func(want int32) {
		t.Helper()
		if got := u.loops.Load(); got != want {
			t.Fatalf("%d loops, want %d", got, want)
		}
	}

	send(1)
	<-y.entered
	send(2)
	want(2)
	loops(2)

	// Wait for the reading loop to be back at its read: a yield then has
	// nobody in service to release.
	for u.owner.Load()&3 != ownReading {
		time.Sleep(time.Millisecond)
	}
	y.yield()
	send(3)
	want(3)
	loops(2)

	close(y.gates[1])
	want(1)
	// Its reply written, the loop of query 1 parks.
	for parked := 0; parked != 1; time.Sleep(time.Millisecond) {
		u.mu.Lock()
		parked = len(u.parked)
		u.mu.Unlock()
	}
	send(4)
	<-y.entered
	send(5)
	want(5)
	loops(2)
	if sat := u.saturated.Value(); sat != 0 {
		t.Errorf("saturated %d below the cap", sat)
	}
	close(y.gates[4])
	want(4)
	if err := u.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestUDPYieldHammer drives the hand-over from every side at once under
// load: closed-loop clients whose every other query yields and waits a
// little, and a goroutine yielding at random moments the way a resolution
// on another transport does. Every query gets its own reply, and the loops
// stay within TestUDPLoopsServeConcurrently's ceiling: a stray yield only
// releases a loop that has a query in service.
func TestUDPYieldHammer(t *testing.T) {
	var yield func()
	u := &UDPServer{Handler: yielderFunc{
		bind: func(y func()) { yield = y },
		serve: func(wire []byte, from netip.Addr) []byte {
			if wire[1]%2 == 1 {
				yield()
				time.Sleep(50 * time.Microsecond)
			}
			return echoQR(wire, from)
		},
	}}
	addr, err := u.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				yield()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	hammer(t, addr, clients)
	close(stop)
	<-stopped
	if err := u.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if loops, sat := u.loops.Load(), u.saturated.Value(); loops > 2*clients+1 || sat != 0 {
		t.Errorf("after %d closed-loop clients: %d loops, saturated %d", clients, loops, sat)
	}
}

// yielderFunc is a simnet.Yielder made of two functions.
type yielderFunc struct {
	bind  func(yield func())
	serve func(wire []byte, from netip.Addr) []byte
}

func (y yielderFunc) BindYield(yield func())                       { y.bind(yield) }
func (y yielderFunc) ServeDNS(wire []byte, from netip.Addr) []byte { return y.serve(wire, from) }
