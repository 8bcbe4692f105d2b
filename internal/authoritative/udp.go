package authoritative

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// DefaultMaxInflight bounds concurrently served UDP queries per listener.
const DefaultMaxInflight = 512

// readErrorBackoff is how long a loop waits after a read error that is not
// the listener closing, so a persistent error costs a counter tick per
// interval instead of a spinning core.
const readErrorBackoff = 5 * time.Millisecond

// Metric names under which a UDPServer with a Registry publishes its
// serving loops: one level and two counts.
const (
	// MetricUDPLoops is the number of serving loops started: the most
	// queries that ever waited at once, plus the loop reading the socket.
	MetricUDPLoops = "listener.udp.loops"
	// MetricUDPSaturated counts yields refused because MaxInflight loops
	// were running: until one of them finished its query, nothing read the
	// socket.
	MetricUDPSaturated = "listener.udp.saturated"
	// MetricUDPReadErrors counts socket read errors other than the
	// listener closing.
	MetricUDPReadErrors = "listener.udp.read_errors"
)

// UDPServer serves a DNS handler over a real UDP socket; it exists so the
// library is usable as an actual nameserver (cmd/authserver), as a
// recursive daemon front-end (cmd/resolverd), and so integration tests can
// exercise the OS network path.
//
// Serving is identical loops, each with its own read and reply buffers, of
// which at most one reads the socket. The loop that reads a datagram serves
// it on its own goroutine, writes the reply and reads again: a query that
// never waits (a cache hit, an authoritative answer) costs no hand-off. A
// query that is about to wait yields: the socket goes to a parked loop, or
// to a new one up to MaxInflight, and the yielding loop parks once its
// reply is written. A handler says when it waits by implementing
// simnet.Yielder; any other handler is yielded for before it is called. At
// the cap a yield is refused and counted, and the socket waits for the
// first loop to finish its query, so beyond MaxInflight backpressure lands
// in the kernel socket buffer. Loops are not retired: a listener that once
// had n queries waiting at once keeps n+1 loops (a goroutine and a 64 KiB
// read buffer each).
type UDPServer struct {
	// Handler serves the queries — an authoritative Server, a recursive
	// front-end, any simnet.Handler. One that also implements
	// simnet.AppendHandler is served without a per-reply copy. The wire
	// passed to it is the loop's read buffer: valid only until it returns.
	Handler simnet.Handler
	// MaxInflight bounds concurrently-served queries, i.e. the number of
	// loops (default DefaultMaxInflight).
	MaxInflight int
	// Registry, when non-nil at Listen, publishes the serving loops as the
	// listener.udp.* metrics.
	Registry *obs.Registry

	// mu guards conn, closed and parked (the wake channels of the loops
	// waiting for the socket, the latest last) and orders every hand-over.
	mu     sync.Mutex
	conn   *net.UDPConn
	closed bool
	parked []chan uint64
	wg     sync.WaitGroup

	// owner is a generation, bumped on every read and hand-over, times 4
	// plus an own* mode. The loop holding the socket moves it from
	// ownReading to ownServing and back without the lock; a hand-over swaps
	// the exact word it saw, so a late yield cannot release a loop that has
	// gone back to reading.
	owner atomic.Uint64

	h          simnet.AppendHandler
	yieldFirst bool
	maxLoops   int32
	loops      atomic.Int32
	saturated  obs.Counter
	readErrors obs.Counter
}

// Modes of UDPServer.owner: the loop holding the socket reads it, or
// serves the datagram it read; or no loop holds it, since a yield was
// refused at the cap, and the first loop to finish its query takes it.
const (
	ownReading = iota
	ownServing
	ownFree
)

func owned(gen, mode uint64) uint64 { return gen<<2 | mode }

// Listen binds addr ("127.0.0.1:0" style) and starts serving until Close.
// It returns the bound address.
func (u *UDPServer) Listen(addr string) (netip.AddrPort, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	if reg := u.Registry; reg != nil {
		reg.GaugeFunc(MetricUDPLoops, func() float64 { return float64(u.loops.Load()) })
		reg.CounterFunc(MetricUDPSaturated, u.saturated.Value)
		reg.CounterFunc(MetricUDPReadErrors, u.readErrors.Value)
	}
	u.maxLoops = int32(u.MaxInflight)
	if u.maxLoops <= 0 {
		u.maxLoops = DefaultMaxInflight
	}
	u.h = simnet.AsAppendHandler(u.Handler)
	if y, ok := u.Handler.(simnet.Yielder); ok {
		y.BindYield(u.yield)
	} else {
		u.yieldFirst = true
	}
	u.mu.Lock()
	u.conn = conn
	u.startLoop(0)
	u.mu.Unlock()
	return conn.LocalAddr().(*net.UDPAddr).AddrPort(), nil
}

// startLoop starts one more loop, holding the socket at generation gen,
// under mu.
func (u *UDPServer) startLoop(gen uint64) {
	u.loops.Add(1)
	u.wg.Add(1)
	go u.serve(u.conn, gen, make(chan uint64, 1))
}

// serve is one serving loop: read, serve, write, on this goroutine and in
// this loop's buffers, for as long as it holds the socket at generation
// gen; once yielded, it parks until it is handed the socket again.
func (u *UDPServer) serve(conn *net.UDPConn, gen uint64, wake chan uint64) {
	defer u.wg.Done()
	in := make([]byte, 65535)
	out := make([]byte, 0, dnswire.MaxUDPSize)
	for {
		n, raddr, err := conn.ReadFromUDPAddrPort(in)
		if err != nil {
			u.mu.Lock()
			closed := u.closed
			u.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			u.readErrors.Inc()
			time.Sleep(readErrorBackoff)
			continue
		}
		gen++
		u.owner.Store(owned(gen, ownServing))
		if u.yieldFirst {
			u.yield()
		}
		// A dual-stack socket reports IPv4 clients as IPv4-mapped IPv6;
		// handlers (rate-limit prefixes, RRL bands) key on the plain form.
		out = u.h.AppendServeDNS(out[:0], in[:n], raddr.Addr().Unmap())
		if len(out) > 0 {
			_, _ = conn.WriteToUDPAddrPort(out, raddr)
		}
		if u.owner.CompareAndSwap(owned(gen, ownServing), owned(gen, ownReading)) {
			continue
		}
		var ok bool
		if gen, ok = u.park(wake); !ok {
			return
		}
	}
}

// yield takes the socket from the loop serving a datagram on it, if any,
// and hands it to the latest parked loop or else to a new one. At
// MaxInflight loops it is refused and counted, and the socket is left for
// whichever loop finishes its query first.
func (u *UDPServer) yield() {
	s := u.owner.Load()
	if s&3 != ownServing {
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	gen, last := s>>2+1, len(u.parked)-1
	full := last < 0 && u.loops.Load() >= u.maxLoops
	mode := uint64(ownReading)
	if full {
		mode = ownFree
	}
	if u.closed || !u.owner.CompareAndSwap(s, owned(gen, mode)) {
		return
	}
	switch {
	case full:
		u.saturated.Inc()
	case last >= 0:
		u.parked[last] <- gen
		u.parked = u.parked[:last]
	default:
		u.startLoop(gen)
	}
}

// park is where a loop goes once its reply is written and the socket is not
// its own: it takes the socket if no loop holds it, or else waits for a
// yield to hand it over. It returns the generation it holds the socket at,
// or false once the listener closes.
func (u *UDPServer) park(wake chan uint64) (uint64, bool) {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return 0, false
	}
	if s := u.owner.Load(); s&3 == ownFree {
		u.owner.Store(owned(s>>2+1, ownReading))
		u.mu.Unlock()
		return s>>2 + 1, true
	}
	u.parked = append(u.parked, wake)
	u.mu.Unlock()
	gen, ok := <-wake
	return gen, ok
}

// Close drains the listener (see drain).
func (u *UDPServer) Close() error { return drain(u) }

func (u *UDPServer) shutdown(ctx context.Context) error {
	u.mu.Lock()
	u.closed = true
	conn := u.conn
	u.conn = nil
	for _, wake := range u.parked {
		close(wake)
	}
	u.parked = nil
	u.mu.Unlock()
	if conn == nil {
		return nil
	}
	// An expired read deadline fails the read of the loop holding the
	// socket, now or when its query is served, while the socket stays open
	// for the replies of the queries in service.
	err := conn.SetReadDeadline(time.Now())
	return errors.Join(err, inService(ctx, &u.wg), conn.Close())
}
