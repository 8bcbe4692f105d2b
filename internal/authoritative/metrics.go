package authoritative

import (
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

// Metrics is the authoritative server's telemetry handle set: the query
// volume and answer-kind breakdown the paper's server-side analyses (§3.4,
// §4.6) read, mirrored into the same registry the resolver reports to.
type Metrics struct {
	// Queries counts every query handled.
	Queries *obs.Counter
	// Referrals counts delegation responses (glue included).
	Referrals *obs.Counter
	// NXDomain counts RFC 2308 name-error responses.
	NXDomain *obs.Counter
	// Refused counts queries outside every served zone.
	Refused *obs.Counter
	// RRLPassed counts UDP responses the rate limiter let through.
	RRLPassed *obs.Counter
	// RRLDropped counts UDP responses RRL suppressed entirely.
	RRLDropped *obs.Counter
	// RRLSlipped counts limited responses sent truncated (TC=1) instead
	// of dropped, inviting the client to retry over TCP.
	RRLSlipped *obs.Counter
}

// Metric names under which Instrument registers the server's telemetry.
const (
	MetricQueries    = "auth.queries"
	MetricReferrals  = "auth.referrals"
	MetricNXDomain   = "auth.nxdomain"
	MetricRefused    = "auth.refused"
	MetricRRLPassed  = "auth.rrl_passed"
	MetricRRLDropped = "auth.rrl_dropped"
	MetricRRLSlipped = "auth.rrl_slipped"
)

// newMetrics resolves the bundle against reg. Queries is an owned counter —
// it counts with or without a registry, because QueryCount reads it — and
// the rest are no-op handles until a registry backs them.
func newMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Queries:    reg.OwnedCounter(MetricQueries),
		Referrals:  reg.Counter(MetricReferrals),
		NXDomain:   reg.Counter(MetricNXDomain),
		Refused:    reg.Counter(MetricRefused),
		RRLPassed:  reg.Counter(MetricRRLPassed),
		RRLDropped: reg.Counter(MetricRRLDropped),
		RRLSlipped: reg.Counter(MetricRRLSlipped),
	}
}

// Instrument moves the server's counters into reg, carrying over the
// queries already counted so that auth.queries and QueryCount stay one
// number. A nil registry detaches: the count moves back to a standalone
// counter. Servers instrumented on one registry share its counters, so each
// then reports their sum. Call it before the server serves: a query counted
// while it runs may be lost.
func (s *Server) Instrument(reg *obs.Registry) {
	old := s.Obs
	s.Obs = newMetrics(reg)
	if s.Obs.Queries != old.Queries {
		s.Obs.Queries.Add(old.Queries.Value())
	}
}

// observe books one handled query by its response shape.
func (m *Metrics) observe(resp *dnswire.Message) {
	m.Queries.Inc()
	switch {
	case resp.IsReferral():
		m.Referrals.Inc()
	case resp.Header.RCode == dnswire.RCodeNXDomain:
		m.NXDomain.Inc()
	case resp.Header.RCode == dnswire.RCodeRefused:
		m.Refused.Inc()
	}
}
