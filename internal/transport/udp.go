package transport

import (
	"errors"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"
)

// udpConn is one pooled connected UDP socket with its owned read buffer —
// the socket is held exclusively for the duration of an exchange, so the
// buffer is never shared.
type udpConn struct {
	c    *net.UDPConn
	buf  []byte
	last time.Time
}

// udpTransport exchanges over pooled connected UDP sockets, falling back
// to the pipelined TCP transport when a response arrives truncated
// (RFC 1035 §4.2.1). Pooling the sockets matters at load-generator rates:
// a fresh socket per query costs two extra syscalls and a port allocation.
type udpTransport struct {
	cfg Config
	m   *Metrics
	tcp *streamTransport // truncation fallback

	mu     sync.Mutex
	idle   map[netip.AddrPort][]*udpConn
	closed bool
}

func newUDPTransport(cfg Config) *udpTransport {
	return &udpTransport{
		cfg:  cfg,
		m:    cfg.Metrics,
		tcp:  newTCPTransport(cfg),
		idle: make(map[netip.AddrPort][]*udpConn),
	}
}

// get pops a pooled socket for server or dials a new one.
func (u *udpTransport) get(server netip.AddrPort) (*udpConn, error) {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil, errConnClosed
	}
	list := u.idle[server]
	for len(list) > 0 {
		uc := list[len(list)-1]
		list = list[:len(list)-1]
		u.idle[server] = list
		if time.Since(uc.last) > idleTimeout {
			_ = uc.c.Close()
			continue
		}
		u.mu.Unlock()
		u.m.Reuses.Inc()
		return uc, nil
	}
	u.mu.Unlock()
	c, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(server))
	if err != nil {
		u.m.DialErrors.Inc()
		return nil, err
	}
	u.m.Dials.Inc()
	return &udpConn{c: c, buf: make([]byte, 65535)}, nil
}

// put returns a socket to the pool, closing it if the pool is full.
func (u *udpTransport) put(server netip.AddrPort, uc *udpConn) {
	uc.last = time.Now()
	u.mu.Lock()
	if !u.closed && len(u.idle[server]) < u.cfg.PoolSize {
		u.idle[server] = append(u.idle[server], uc)
		u.mu.Unlock()
		return
	}
	u.mu.Unlock()
	_ = uc.c.Close()
}

// Exchange implements Transport: AppendExchange into a new buffer.
func (u *udpTransport) Exchange(server netip.AddrPort, query []byte) ([]byte, time.Duration, error) {
	return u.AppendExchange(nil, server, query)
}

// AppendExchange writes the query on a pooled connected socket, reads until
// a response with the query's message ID arrives (late answers to earlier
// timed-out queries are dropped), appends it to buf straight from the
// socket's read buffer, and retries a truncated answer over TCP. buf comes
// back unextended on error.
//
// A fallback is part of this one exchange: it is counted once, its RTT is
// both legs, and a failed TCP leg is no error, since the truncated answer is
// still an answer, served as the classic resolver path does.
func (u *udpTransport) AppendExchange(buf []byte, server netip.AddrPort, query []byte) ([]byte, time.Duration, error) {
	u.m.Exchanges.Inc()
	out, rtt, err := u.appendUDP(buf, server, query)
	if err != nil {
		u.m.Errors.Inc()
		return buf, rtt, err
	}
	if out[len(buf)+2]&0x02 != 0 { // TC bit: retry over TCP
		u.m.TCPFallbacks.Inc()
		tcpResp, tcpRTT, tcpErr := u.tcp.pool.exchange(server, query)
		rtt += tcpRTT
		if tcpErr == nil {
			out = append(buf, tcpResp...)
		}
	}
	u.m.RTT.ObserveDuration(rtt)
	return out, rtt, nil
}

func (u *udpTransport) appendUDP(buf []byte, server netip.AddrPort, query []byte) ([]byte, time.Duration, error) {
	if len(query) < 12 {
		return buf, 0, errors.New("transport: query shorter than a DNS header")
	}
	uc, err := u.get(server)
	if err != nil {
		return buf, 0, err
	}
	start := time.Now()
	deadline := start.Add(u.cfg.Timeout)
	_ = uc.c.SetDeadline(deadline)
	if _, err := uc.c.Write(query); err != nil {
		_ = uc.c.Close()
		return buf, time.Since(start), err
	}
	for {
		n, err := uc.c.Read(uc.buf)
		if err != nil {
			_ = uc.c.Close()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = ErrTimeout
			}
			return buf, time.Since(start), err
		}
		if n < 12 || uc.buf[0] != query[0] || uc.buf[1] != query[1] {
			// A stray datagram: wrong ID (a late answer from a previous
			// occupant of this socket) or too short to be DNS. Keep
			// listening until our answer or the deadline.
			u.m.IDMismatches.Inc()
			continue
		}
		rtt := time.Since(start)
		out := append(buf, uc.buf[:n]...)
		u.put(server, uc)
		return out, rtt, nil
	}
}

// Close implements Transport.
func (u *udpTransport) Close() error {
	u.mu.Lock()
	u.closed = true
	idle := u.idle
	u.idle = make(map[netip.AddrPort][]*udpConn)
	u.mu.Unlock()
	for _, list := range idle {
		for _, uc := range list {
			_ = uc.c.Close()
		}
	}
	return u.tcp.Close()
}
