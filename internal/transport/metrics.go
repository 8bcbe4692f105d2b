package transport

import (
	"dnsttl/internal/obs"
)

// Metrics is the transport plane's bundle of pre-resolved telemetry
// handles. Every field is nil-safe (the obs contract), so NewMetrics(nil) —
// what New fills in for a nil Config.Metrics — records nothing without
// branches at the call sites.
type Metrics struct {
	// Exchanges counts Exchange calls; Errors the ones that failed.
	Exchanges *obs.Counter
	Errors    *obs.Counter
	// Dials counts new connections (or UDP sockets) opened; DialErrors the
	// dials that failed; Reuses the exchanges served by a pooled
	// connection instead of a fresh dial.
	Dials      *obs.Counter
	DialErrors *obs.Counter
	Reuses     *obs.Counter
	// Handshakes counts completed TLS handshakes; HandshakeMS times them.
	Handshakes  *obs.Counter
	HandshakeMS *obs.Histogram
	// TCPFallbacks counts truncated UDP responses retried over TCP.
	TCPFallbacks *obs.Counter
	// IDMismatches counts responses dropped because their message ID
	// matched no in-flight query (late answers after a timeout, or a
	// misbehaving server).
	IDMismatches *obs.Counter
	// RTT times successful exchanges in milliseconds.
	RTT *obs.Histogram
}

// Metric names under which NewMetrics registers the transport telemetry.
const (
	MetricExchanges    = "transport.exchanges"
	MetricErrors       = "transport.errors"
	MetricDials        = "transport.dials"
	MetricDialErrors   = "transport.dial_errors"
	MetricReuses       = "transport.reuses"
	MetricHandshakes   = "transport.tls_handshakes"
	MetricHandshakeMS  = "transport.tls_handshake_ms"
	MetricTCPFallbacks = "transport.tcp_fallbacks"
	MetricIDMismatches = "transport.id_mismatches"
	MetricRTT          = "transport.rtt_ms"
)

// NewMetrics resolves the standard handle set from reg. A nil registry
// yields a Metrics of nil handles, which records nothing.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Exchanges:    reg.Counter(MetricExchanges),
		Errors:       reg.Counter(MetricErrors),
		Dials:        reg.Counter(MetricDials),
		DialErrors:   reg.Counter(MetricDialErrors),
		Reuses:       reg.Counter(MetricReuses),
		Handshakes:   reg.Counter(MetricHandshakes),
		HandshakeMS:  reg.Histogram(MetricHandshakeMS),
		TCPFallbacks: reg.Counter(MetricTCPFallbacks),
		IDMismatches: reg.Counter(MetricIDMismatches),
		RTT:          reg.Histogram(MetricRTT),
	}
}
