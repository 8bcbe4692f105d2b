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
	// MetricUDPLoops is the number of serving loops started: the peak
	// number of queries that were in service at once, plus one.
	MetricUDPLoops = "listener.udp.loops"
	// MetricUDPSaturated counts datagrams taken by the last idle loop when
	// no further loop could be started: while that query was in service
	// (and MaxInflight-1 others), nothing read the socket.
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
// Serving is N identical loops sharing the socket, each reading a datagram
// into its own buffer, calling the handler on its own goroutine and writing
// the reply from its own buffer. Listen starts one loop; a loop that picks
// up a datagram while no other loop is left waiting for the next one starts
// another, up to MaxInflight. So a handler blocked on an upstream timeout
// never leaves the socket without a reader, at most MaxInflight queries are
// in service, and beyond that backpressure lands in the kernel socket
// buffer. Loops are not retired: a listener that once served a burst of n
// concurrent slow queries keeps n loops (a parked goroutine and a 64 KiB
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

	mu     sync.Mutex
	conn   *net.UDPConn
	closed bool
	wg     sync.WaitGroup

	// idle counts loops waiting for a datagram; loops counts loops started.
	idle       atomic.Int32
	loops      atomic.Int32
	saturated  obs.Counter
	readErrors obs.Counter
}

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
	u.mu.Lock()
	u.conn = conn
	u.mu.Unlock()
	if reg := u.Registry; reg != nil {
		reg.GaugeFunc(MetricUDPLoops, func() float64 { return float64(u.loops.Load()) })
		reg.CounterFunc(MetricUDPSaturated, u.saturated.Value)
		reg.CounterFunc(MetricUDPReadErrors, u.readErrors.Value)
	}
	maxLoops := int32(u.MaxInflight)
	if maxLoops <= 0 {
		maxLoops = DefaultMaxInflight
	}
	u.startLoop(conn, simnet.AsAppendHandler(u.Handler), maxLoops)
	return conn.LocalAddr().(*net.UDPAddr).AddrPort(), nil
}

// startLoop starts one more serving loop, unless maxLoops are running. The
// new loop counts as idle from this moment, not from when its goroutine
// first runs, so that one missing reader starts exactly one loop.
func (u *UDPServer) startLoop(conn *net.UDPConn, h simnet.AppendHandler, maxLoops int32) bool {
	for {
		n := u.loops.Load()
		if n >= maxLoops {
			return false
		}
		if u.loops.CompareAndSwap(n, n+1) {
			break
		}
	}
	u.idle.Add(1)
	u.wg.Add(1)
	go u.serve(conn, h, maxLoops)
	return true
}

// serve is one serving loop: read, serve, write, on this goroutine and in
// this loop's buffers. It is counted in u.idle whenever it is not between
// a successful read and the end of that query's write.
func (u *UDPServer) serve(conn *net.UDPConn, h simnet.AppendHandler, maxLoops int32) {
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
		// Nobody left to read the next datagram while this one is served?
		// Start another loop, unless the cap is reached.
		if u.idle.Add(-1) == 0 && !u.startLoop(conn, h, maxLoops) {
			u.saturated.Inc()
		}
		// A dual-stack socket reports IPv4 clients as IPv4-mapped IPv6;
		// handlers (rate-limit prefixes, RRL bands) key on the plain form.
		out = h.AppendServeDNS(out[:0], in[:n], raddr.Addr().Unmap())
		if len(out) > 0 {
			_, _ = conn.WriteToUDPAddrPort(out, raddr)
		}
		u.idle.Add(1)
	}
}

// Close drains the listener (see drain).
func (u *UDPServer) Close() error { return drain(u) }

func (u *UDPServer) shutdown(ctx context.Context) error {
	u.mu.Lock()
	u.closed = true
	conn := u.conn
	u.conn = nil
	u.mu.Unlock()
	if conn == nil {
		return nil
	}
	// An expired read deadline fails the read every idle loop is parked in
	// and the read a loop in service comes back to, while the socket stays
	// open for that loop's reply.
	err := conn.SetReadDeadline(time.Now())
	return errors.Join(err, inService(ctx, &u.wg), conn.Close())
}
