package authoritative

import (
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

// metrics is the authoritative server's counters: the query volume and
// answer-kind breakdown the paper's server-side analyses (§3.4, §4.6) read.
// The server counts into them with or without a registry; Instrument only
// publishes them.
type metrics struct {
	// queries counts every query handled; QueryCount reads it.
	queries obs.Counter
	// referrals counts delegation responses (glue included), nxdomain RFC
	// 2308 name errors, refused queries outside every served zone.
	referrals, nxdomain, refused obs.Counter
	// rrlPassed counts UDP responses the rate limiter let through,
	// rrlDropped those it suppressed entirely, and rrlSlipped limited
	// responses sent truncated (TC=1), inviting a retry over TCP.
	rrlPassed, rrlDropped, rrlSlipped obs.Counter
}

// Metric names under which Instrument publishes the server's counters.
const (
	MetricQueries    = "auth.queries"
	MetricReferrals  = "auth.referrals"
	MetricNXDomain   = "auth.nxdomain"
	MetricRefused    = "auth.refused"
	MetricRRLPassed  = "auth.rrl_passed"
	MetricRRLDropped = "auth.rrl_dropped"
	MetricRRLSlipped = "auth.rrl_slipped"
)

// Instrument publishes the server's counters in reg. It is safe while the
// server serves: the counts stay where they are, so auth.queries and
// QueryCount are one number from the first query on. A nil registry is a
// no-op.
func (s *Server) Instrument(reg *obs.Registry) {
	m := &s.m
	reg.CounterFunc(MetricQueries, m.queries.Value)
	reg.CounterFunc(MetricReferrals, m.referrals.Value)
	reg.CounterFunc(MetricNXDomain, m.nxdomain.Value)
	reg.CounterFunc(MetricRefused, m.refused.Value)
	reg.CounterFunc(MetricRRLPassed, m.rrlPassed.Value)
	reg.CounterFunc(MetricRRLDropped, m.rrlDropped.Value)
	reg.CounterFunc(MetricRRLSlipped, m.rrlSlipped.Value)
}

// observe books one handled query by its response shape.
func (m *metrics) observe(resp *dnswire.Message) {
	m.queries.Inc()
	switch {
	case resp.IsReferral():
		m.referrals.Inc()
	case resp.Header.RCode == dnswire.RCodeNXDomain:
		m.nxdomain.Inc()
	case resp.Header.RCode == dnswire.RCodeRefused:
		m.refused.Inc()
	}
}
