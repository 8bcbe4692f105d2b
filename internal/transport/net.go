package transport

import (
	"net/netip"
	"time"
)

// Net adapts a Transport into the resolver's Exchanger shape
// (simnet.Exchanger): queries addressed to a bare server address go to
// that address at the configured port. The source address is ignored —
// real sockets pick their own.
//
// Everything above the Exchanger seam — iteration, caching, the retry and
// hedging plane, span tracing — works unchanged whether the exchanger is
// the in-memory simnet or this adapter over real sockets.
type Net struct {
	// T carries the queries.
	T Transport
	// Port is the destination port on every upstream.
	Port uint16
}

// NewNet wraps t, defaulting port 0 to the kind-appropriate value when
// known (use Kind.DefaultPort at construction) or 53 otherwise.
func NewNet(t Transport, port uint16) *Net {
	if port == 0 {
		port = 53
	}
	return &Net{T: t, Port: port}
}

// Exchange implements simnet.Exchanger.
func (n *Net) Exchange(src, dst netip.Addr, query []byte) ([]byte, time.Duration, error) {
	return n.T.Exchange(netip.AddrPortFrom(dst, n.Port), query)
}

// AppendExchange implements simnet.AppendExchanger. Real sockets have no
// fault schedule, so the offset is unused. The UDP transport appends the
// reply straight from its socket's read buffer; the stream transports hand
// over a frame their reader already allocated, which is copied onto buf.
func (n *Net) AppendExchange(buf []byte, src, dst netip.Addr, query []byte, _ time.Duration) ([]byte, time.Duration, error) {
	server := netip.AddrPortFrom(dst, n.Port)
	if u, ok := n.T.(*udpTransport); ok {
		return u.AppendExchange(buf, server, query)
	}
	resp, rtt, err := n.T.Exchange(server, query)
	if err != nil {
		return buf, rtt, err
	}
	return append(buf, resp...), rtt, nil
}

// Close releases the underlying transport's pooled connections.
func (n *Net) Close() error { return n.T.Close() }
