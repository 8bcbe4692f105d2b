package resolver

import (
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

// Metrics is the resolver's bundle of telemetry handles, pre-resolved from
// a registry so the hot path pays one atomic op per event and zero registry
// lookups. The handles are nil-safe, so NewMetrics(nil) records nothing: a
// bare resolver (a private vantage point) pays no atomics. The
// per-resolution counts are the farm's, which books them per frontend.
type Metrics struct {
	// ServFail counts resolutions that ended in SERVFAIL.
	ServFail *obs.Counter
	// Retries counts attempts past the first within iteration steps (the
	// retry plane's added work); Hedges counts hedged second queries
	// launched and HedgeWins the subset where the hedge finished first.
	Retries   *obs.Counter
	Hedges    *obs.Counter
	HedgeWins *obs.Counter
	// Prefetches counts refresh-ahead re-resolutions issued;
	// PrefetchCoalesced counts triggers absorbed by an identical prefetch
	// already in flight; PrefetchDenied counts triggers dropped by the
	// Policy.PrefetchBudget bucket.
	Prefetches        *obs.Counter
	PrefetchCoalesced *obs.Counter
	PrefetchDenied    *obs.Counter
	// Latency is the per-resolution client latency in milliseconds.
	Latency *obs.Histogram
	// UpstreamRTT is the per-exchange round-trip time in milliseconds.
	UpstreamRTT *obs.Histogram
	// AnswerTTL is the TTL carried by the first answer record returned to
	// the client, in seconds — the paper's Figures 1/2 quantity.
	AnswerTTL *obs.Histogram
	// SRTT is the smoothed per-server RTT estimate after each successful
	// exchange, in milliseconds.
	SRTT *obs.Histogram
	// Backoff is the per-retry backoff delay (jitter included) charged to
	// clients, in milliseconds.
	Backoff *obs.Histogram
}

// Metric names of the resolver's telemetry. NewMetrics registers all but
// the first five, which a farm publishes as sums over its frontends:
// resolutions answered (a coalesced follower is counted by its leader
// only), those answered without an upstream query, those served past their
// TTL (RFC 8767), upstream exchanges attempted and those that timed out.
const (
	MetricResolutions = "resolver.resolutions"
	MetricCacheHits   = "resolver.cache_hits"
	MetricStaleServed = "resolver.stale_served"
	MetricUpstream    = "resolver.upstream_queries"
	MetricTimeouts    = "resolver.upstream_timeouts"

	MetricServFail    = "resolver.servfail"
	MetricLatency     = "resolver.latency_ms"
	MetricUpstreamRTT = "resolver.upstream_rtt_ms"
	MetricAnswerTTL   = "resolver.answer_ttl_s"
	MetricRetries     = "resolver.retries"
	MetricHedges      = "resolver.hedges"
	MetricHedgeWins   = "resolver.hedge_wins"
	MetricSRTT        = "resolver.srtt_ms"
	MetricBackoff     = "resolver.backoff_ms"

	MetricPrefetches        = "resolver.prefetches"
	MetricPrefetchCoalesced = "resolver.prefetch_coalesced"
	MetricPrefetchDenied    = "resolver.prefetch_budget_denied"
)

// NewMetrics resolves the standard handle set from reg. A nil registry
// yields a Metrics of nil handles, which records nothing — callers can
// attach it unconditionally.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		ServFail:    reg.Counter(MetricServFail),
		Latency:     reg.Histogram(MetricLatency),
		UpstreamRTT: reg.Histogram(MetricUpstreamRTT),
		AnswerTTL:   reg.Histogram(MetricAnswerTTL),
		Retries:     reg.Counter(MetricRetries),
		Hedges:      reg.Counter(MetricHedges),
		HedgeWins:   reg.Counter(MetricHedgeWins),
		SRTT:        reg.Histogram(MetricSRTT),
		Backoff:     reg.Histogram(MetricBackoff),

		Prefetches:        reg.Counter(MetricPrefetches),
		PrefetchCoalesced: reg.Counter(MetricPrefetchCoalesced),
		PrefetchDenied:    reg.Counter(MetricPrefetchDenied),
	}
}

// observeResolution books one completed client resolution.
func (m *Metrics) observeResolution(res *Result) {
	if res.Msg != nil && res.Msg.Header.RCode == dnswire.RCodeServFail {
		m.ServFail.Inc()
	}
	m.Latency.ObserveDuration(res.Latency)
	if res.Msg != nil && len(res.Msg.Answer) > 0 {
		m.AnswerTTL.Observe(float64(res.AnswerTTL))
	}
}
