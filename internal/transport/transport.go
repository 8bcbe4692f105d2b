// Package transport is the resolver-side real-socket plane: pluggable
// client transports that carry one wire-format DNS query to an upstream
// server and return the wire-format response. Four implementations share
// one interface and one per-upstream connection-pool design:
//
//   - UDP: pooled connected sockets with truncation-driven TCP fallback
//     (RFC 1035 §4.2.1) — the classic resolver transport.
//   - TCP: persistent pipelined connections (RFC 7766 §6.2.1.1) with
//     out-of-order response matching by message ID, so many queries share
//     one connection without head-of-line blocking at the client.
//   - DoT: the same pipelined core over crypto/tls (RFC 7858).
//   - DoH: POSTed application/dns-message over net/http (RFC 8484), with
//     connection reuse delegated to the HTTP client's pool.
//
// Every transport records dial/reuse/handshake/RTT telemetry through
// internal/obs when given a Metrics bundle, so connection-pool behavior is
// observable at production query rates. The simulation plane is untouched:
// a Transport is adapted into the resolver's Exchanger interface by Net,
// and everything above (retry/hedging, span tracing, caching) works
// unchanged over real sockets.
package transport

import (
	"crypto/tls"
	"fmt"
	"net/netip"
	"slices"
	"time"
)

// Kind selects a transport implementation.
type Kind uint8

const (
	// UDP is datagram exchange with TCP fallback on truncation.
	UDP Kind = iota
	// TCP is persistent pipelined TCP with out-of-order responses.
	TCP
	// DoT is DNS over TLS (RFC 7858).
	DoT
	// DoH is DNS over HTTPS (RFC 8484, POST wireformat).
	DoH
)

// kindNames is each Kind's one spelling (the -transport values). String,
// MarshalText and UnmarshalText all read it.
var kindNames = [...]string{UDP: "udp", TCP: "tcp", DoT: "dot", DoH: "doh"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *Kind) UnmarshalText(b []byte) error {
	i := slices.Index(kindNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("transport: unknown kind %q (want one of %q)", b, kindNames)
	}
	*k = Kind(i)
	return nil
}

// DefaultPort is the IANA port for the kind: 53 for UDP/TCP, 853 for DoT,
// 443 for DoH.
func (k Kind) DefaultPort() uint16 {
	switch k {
	case DoT:
		return 853
	case DoH:
		return 443
	default:
		return 53
	}
}

// Transport moves one wire-format query to server and returns the
// wire-format response and measured round-trip time. Implementations are
// safe for concurrent use; the caller's query buffer is not retained or
// mutated past the call.
type Transport interface {
	Exchange(server netip.AddrPort, query []byte) (resp []byte, rtt time.Duration, err error)
	// Close releases every pooled connection.
	Close() error
}

// Defaults applied by New for zero Config fields.
const (
	DefaultPoolSize = 4
	DefaultTimeout  = 5 * time.Second
)

// idleTimeout closes pooled connections unused this long.
const idleTimeout = 30 * time.Second

// Config parameterizes New.
type Config struct {
	// Kind selects the implementation.
	Kind Kind
	// PoolSize bounds live connections per upstream (and, for UDP, pooled
	// sockets per upstream). 0 means DefaultPoolSize.
	PoolSize int
	// Timeout bounds one exchange end to end, including any dial or TLS
	// handshake it triggers. 0 means DefaultTimeout.
	Timeout time.Duration
	// TLS configures DoT/DoH. nil uses a default config; ServerName and
	// Insecure below still apply on top of a caller-provided config when
	// unset there.
	TLS *tls.Config
	// ServerName overrides the TLS SNI / certificate host check (default:
	// the upstream's address literal).
	ServerName string
	// Insecure skips TLS certificate verification (self-signed test
	// servers).
	Insecure bool
	// Metrics records pool and exchange telemetry; nil records nothing.
	Metrics *Metrics
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = DefaultPoolSize
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(nil)
	}
	return c
}

// tlsConfig builds the effective client TLS config for host.
func (c Config) tlsConfig(host string) *tls.Config {
	var cfg *tls.Config
	if c.TLS != nil {
		cfg = c.TLS.Clone()
	} else {
		cfg = &tls.Config{MinVersion: tls.VersionTLS12}
	}
	if cfg.ServerName == "" {
		if c.ServerName != "" {
			cfg.ServerName = c.ServerName
		} else {
			cfg.ServerName = host
		}
	}
	if c.Insecure {
		cfg.InsecureSkipVerify = true
	}
	return cfg
}

// New builds the configured transport.
func New(cfg Config) (Transport, error) {
	cfg = cfg.withDefaults()
	switch cfg.Kind {
	case UDP:
		return newUDPTransport(cfg), nil
	case TCP:
		return newTCPTransport(cfg), nil
	case DoT:
		return newDoTTransport(cfg), nil
	case DoH:
		return newDoHTransport(cfg), nil
	}
	return nil, fmt.Errorf("transport: unknown kind %v", cfg.Kind)
}
