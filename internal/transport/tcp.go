package transport

import (
	"crypto/tls"
	"net"
	"net/netip"
	"time"
)

// streamTransport is the shared TCP/DoT implementation: a per-upstream
// pool of pipelined persistent connections, differing only in how a
// connection is dialed.
type streamTransport struct {
	cfg  Config
	m    *Metrics
	pool *pool
}

// newTCPTransport builds the plain-TCP transport (RFC 7766 persistent
// connections, pipelined).
func newTCPTransport(cfg Config) *streamTransport {
	t := &streamTransport{cfg: cfg, m: cfg.Metrics}
	t.pool = newPool(cfg, func(server netip.AddrPort) (net.Conn, error) {
		return net.DialTimeout("tcp", server.String(), cfg.Timeout)
	})
	return t
}

// newDoTTransport builds the DNS-over-TLS transport (RFC 7858): the same
// pipelined pool, dialed through a TLS handshake.
func newDoTTransport(cfg Config) *streamTransport {
	t := &streamTransport{cfg: cfg, m: cfg.Metrics}
	t.pool = newPool(cfg, func(server netip.AddrPort) (net.Conn, error) {
		raw, err := net.DialTimeout("tcp", server.String(), cfg.Timeout)
		if err != nil {
			return nil, err
		}
		tc := tls.Client(raw, cfg.tlsConfig(server.Addr().String()))
		start := time.Now()
		_ = tc.SetDeadline(start.Add(cfg.Timeout))
		if err := tc.Handshake(); err != nil {
			_ = raw.Close()
			return nil, err
		}
		_ = tc.SetDeadline(time.Time{})
		t.m.Handshakes.Inc()
		t.m.HandshakeMS.ObserveDuration(time.Since(start))
		return tc, nil
	})
	return t
}

// Exchange implements Transport.
func (t *streamTransport) Exchange(server netip.AddrPort, query []byte) ([]byte, time.Duration, error) {
	t.m.Exchanges.Inc()
	resp, rtt, err := t.pool.exchange(server, query)
	if err != nil {
		t.m.Errors.Inc()
		return nil, rtt, err
	}
	t.m.RTT.ObserveDuration(rtt)
	return resp, rtt, nil
}

// Close implements Transport.
func (t *streamTransport) Close() error { return t.pool.close() }
