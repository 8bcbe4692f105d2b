package dnsttl

import (
	"crypto/tls"
	"time"

	"dnsttl/internal/transport"
)

// TransportKind selects a real-socket upstream transport: UDP with
// truncation-driven TCP fallback, pipelined persistent TCP, DoT, or DoH.
type TransportKind = transport.Kind

// Transport kinds, re-exported for NewTransportNet.
const (
	TransportUDP = transport.UDP
	TransportTCP = transport.TCP
	TransportDoT = transport.DoT
	TransportDoH = transport.DoH
)

// Transport moves one wire query to an upstream and returns the response —
// the resolver-side real-socket plane (see internal/transport).
type Transport = transport.Transport

// TransportOptions parameterizes NewTransportNet.
type TransportOptions struct {
	// Port is the upstream destination port; 0 uses the kind's IANA
	// default (53, 53, 853, 443).
	Port uint16
	// PoolSize bounds live connections (or pooled UDP sockets) per
	// upstream; 0 means the package default.
	PoolSize int
	// Timeout bounds one exchange end to end; 0 means the default (5 s).
	Timeout time.Duration
	// TLS configures DoT/DoH upstream verification; nil uses defaults.
	TLS *tls.Config
	// ServerName overrides the TLS SNI / certificate host check.
	ServerName string
	// Insecure skips TLS certificate verification (self-signed upstreams).
	Insecure bool
	// Registry, when non-nil, receives the transport.* pool and exchange
	// metrics.
	Registry *Registry
}

// TransportNet is an Exchanger over a pooled real-socket transport; plug
// it into ClientConfig.Net to iterate over UDP, TCP, DoT, or DoH. Close
// releases the pooled connections.
type TransportNet = transport.Net

// NewTransportNet builds a pooled transport of the given kind wrapped in
// the Exchanger adapter the resolver consumes. The retry/hedging plane,
// span tracing, and caching all work unchanged over it.
func NewTransportNet(kind TransportKind, opts TransportOptions) (*TransportNet, error) {
	t, err := transport.New(transport.Config{
		Kind:       kind,
		PoolSize:   opts.PoolSize,
		Timeout:    opts.Timeout,
		TLS:        opts.TLS,
		ServerName: opts.ServerName,
		Insecure:   opts.Insecure,
		Metrics:    transport.NewMetrics(opts.Registry),
	})
	if err != nil {
		return nil, err
	}
	port := opts.Port
	if port == 0 {
		port = kind.DefaultPort()
	}
	return transport.NewNet(t, port), nil
}
