package authoritative

import (
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// Serving-plane defaults. A slow or hung client may pin at most one
// goroutine for DefaultTCPIdleTimeout; the connection cap bounds how many
// such goroutines can exist at once.
const (
	// DefaultTCPIdleTimeout is how long a connection may sit between
	// queries (and how long one read/write may take) before it is closed.
	DefaultTCPIdleTimeout = 30 * time.Second
	// DefaultMaxTCPConns bounds concurrently served connections.
	DefaultMaxTCPConns = 512
)

// Metric names under which a TCPServer with a Registry publishes its
// counts: connections shed at the MaxConns cap, and accept errors other than
// the listener closing (EMFILE), after each of which the loop pauses.
const (
	MetricTCPRejected     = "listener.tcp.rejected"
	MetricTCPAcceptErrors = "listener.tcp.accept_errors"
	MetricDoTRejected     = "listener.dot.rejected"
	MetricDoTAcceptErrors = "listener.dot.accept_errors"
)

// TCPServer serves DNS over TCP with RFC 1035 §4.2.2 two-byte length
// framing — the fallback transport clients use when a UDP response arrives
// truncated, and the base layer for DoT when TLS is set.
type TCPServer struct {
	// Handler serves the queries, under the contract a UDPServer's does:
	// the wire it is handed is the connection's read buffer, valid only
	// until it returns. Whether replies are cut to a datagram size is the
	// handler's business: see the stream flag of Server.Handler(tap, stream).
	Handler simnet.Handler
	// TLS, when non-nil, wraps every accepted connection (DNS over TLS,
	// RFC 7858).
	TLS *tls.Config
	// IdleTimeout bounds each read and write on a connection, so a client
	// that stops sending (or stops reading) cannot pin its goroutine
	// forever. 0 means DefaultTCPIdleTimeout.
	IdleTimeout time.Duration
	// MaxConns caps concurrently served connections; excess accepts are
	// closed immediately. 0 means DefaultMaxTCPConns; negative means
	// unlimited.
	MaxConns int
	// Registry, when non-nil at Listen, publishes the listener's counts as
	// listener.tcp.* (listener.dot.* when TLS is set).
	Registry *obs.Registry

	// rejected counts connections shed at the MaxConns cap.
	rejected     obs.Counter
	acceptErrors obs.Counter
	closed       atomic.Bool

	mu sync.Mutex
	ln net.Listener
	// conns is the connections being served: what MaxConns caps and what
	// Close wakes.
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func (t *TCPServer) idleTimeout() time.Duration {
	if t.IdleTimeout > 0 {
		return t.IdleTimeout
	}
	return DefaultTCPIdleTimeout
}

// Listen binds addr and serves until Close, returning the bound address.
func (t *TCPServer) Listen(addr string) (netip.AddrPort, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	bound := ln.Addr().(*net.TCPAddr).AddrPort()
	rejected, acceptErrors := MetricTCPRejected, MetricTCPAcceptErrors
	if t.TLS != nil {
		ln = tls.NewListener(ln, t.TLS)
		rejected, acceptErrors = MetricDoTRejected, MetricDoTAcceptErrors
	}
	if reg := t.Registry; reg != nil {
		reg.CounterFunc(rejected, t.rejected.Value)
		reg.CounterFunc(acceptErrors, t.acceptErrors.Value)
	}
	maxConns := t.MaxConns
	if maxConns == 0 {
		maxConns = DefaultMaxTCPConns
	}
	t.mu.Lock()
	t.ln = ln
	t.conns = make(map[net.Conn]struct{})
	t.mu.Unlock()
	t.wg.Add(1)
	go t.serve(ln, simnet.AsAppendHandler(t.Handler), maxConns)
	return bound, nil
}

func (t *TCPServer) serve(ln net.Listener, h simnet.AppendHandler, maxConns int) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if t.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// A persistent error (EMFILE) must not spin a core.
			t.acceptErrors.Inc()
			time.Sleep(readErrorBackoff)
			continue
		}
		t.mu.Lock()
		full := maxConns > 0 && len(t.conns) >= maxConns
		if !full {
			t.conns[conn] = struct{}{}
		}
		t.mu.Unlock()
		if full {
			// At the connection cap: shed the newcomer instead of queueing
			// it behind goroutines a slow client may be pinning.
			t.rejected.Inc()
			_ = conn.Close()
			continue
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.handleConn(conn, h)
		}()
	}
}

// handleConn serves queries on one connection until EOF, error, an idle
// timeout or Close. Multiple queries per connection are allowed, as the RFC
// permits. It is the UDP loop's shape on a stream: one read buffer and one
// reply buffer per connection, the reply appended behind its length prefix
// and handed to the socket in one Write (RFC 7766 §8: one segment, one TLS
// record).
func (t *TCPServer) handleConn(conn net.Conn, h simnet.AppendHandler) {
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	idle := t.idleTimeout()
	from := netip.Addr{}
	if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		from = ta.AddrPort().Addr()
	}
	in := make([]byte, 512)
	out := make([]byte, 2, 2+512)
	for {
		// One deadline per query: a client may hold the connection open
		// indefinitely as long as it keeps sending, but each silence is
		// bounded.
		_ = conn.SetReadDeadline(time.Now().Add(idle))
		// Checked after the deadline is set: either this sees Close, or
		// Close's expired deadline lands after ours and fails the read.
		if t.closed.Load() {
			return
		}
		if _, err := io.ReadFull(conn, in[:2]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint16(in))
		if n == 0 {
			return
		}
		if n > len(in) {
			in = make([]byte, n)
		}
		if _, err := io.ReadFull(conn, in[:n]); err != nil {
			return
		}
		out = h.AppendServeDNS(out[:2], in[:n], from)
		if len(out) == 2 || len(out)-2 > 0xFFFF {
			return
		}
		binary.BigEndian.PutUint16(out, uint16(len(out)-2))
		_ = conn.SetWriteDeadline(time.Now().Add(idle))
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// Close drains the listener (see drain).
func (t *TCPServer) Close() error { return drain(t) }

func (t *TCPServer) shutdown(ctx context.Context) error {
	t.closed.Store(true)
	t.mu.Lock()
	ln := t.ln
	t.ln = nil
	for conn := range t.conns {
		// Fails the read a connection between queries is parked in; one with
		// a query in service finds closed set once its reply is written.
		_ = conn.SetReadDeadline(time.Now())
	}
	t.mu.Unlock()
	if ln == nil {
		return nil
	}
	err := errors.Join(ln.Close(), inService(ctx, &t.wg))
	t.mu.Lock()
	for conn := range t.conns { // only what the bound cut short
		_ = conn.Close()
	}
	t.mu.Unlock()
	return err
}
