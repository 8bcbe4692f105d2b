package push

import "dnsttl/internal/obs"

// Metric names the push plane registers. The push.* prefix is the
// subscriber (resolver) side; push.feed_* is the authority side.
const (
	// MetricNotifies counts NOTIFY messages arriving at the subscriber.
	MetricNotifies = "push.notifies"
	// MetricNotifyDups counts NOTIFYs carrying an already-seen serial —
	// duplicates and reorders acknowledged without a second purge.
	MetricNotifyDups = "push.notify_dups"
	// MetricIXFR counts incremental delta pulls completed.
	MetricIXFR = "push.ixfr"
	// MetricAXFRFallback counts pulls answered with the full-zone fallback
	// because the feed's history no longer covered our serial.
	MetricAXFRFallback = "push.axfr_fallback"
	// MetricPurged counts cache entries removed by applied change sets.
	MetricPurged = "push.purged"
	// MetricRefetches counts purge+prefetch re-resolutions triggered.
	MetricRefetches = "push.refetches"
	// MetricSubscribes counts successful zone subscriptions.
	MetricSubscribes = "push.subscribes"
	// MetricSubscribeRetries counts failed subscription attempts (retried
	// on the next Tick).
	MetricSubscribeRetries = "push.subscribe_retries"
	// MetricPolls counts SOA fallback polls sent when notifies go quiet.
	MetricPolls = "push.polls"
	// MetricPollRecoveries counts polls that found an advanced serial —
	// changes the push channel lost, recovered via polling.
	MetricPollRecoveries = "push.poll_recoveries"
	// MetricStaleDenied counts serve-stale answers vetoed because the name
	// was purged or its subscription was unhealthy.
	MetricStaleDenied = "push.stale_denied"

	// MetricFeedChanges counts zone change sets committed to feeds.
	MetricFeedChanges = "push.feed_changes"
	// MetricFeedNotifies counts NOTIFY messages fanned out to subscribers.
	MetricFeedNotifies = "push.feed_notifies"
	// MetricFeedSubscribers gauges the current subscriber registrations.
	MetricFeedSubscribers = "push.feed_subscribers"
	// MetricFeedIXFRServed counts incremental transfers served.
	MetricFeedIXFRServed = "push.feed_ixfr_served"
	// MetricFeedAXFRServed counts full-zone fallback transfers served.
	MetricFeedAXFRServed = "push.feed_axfr_served"
)

// Metrics is the subscriber's counter bundle: the counters Stats reads are
// the ones /metrics exports.
type Metrics struct {
	Notifies         *obs.Counter
	NotifyDups       *obs.Counter
	IXFR             *obs.Counter
	AXFRFallback     *obs.Counter
	Purged           *obs.Counter
	Refetches        *obs.Counter
	Subscribes       *obs.Counter
	SubscribeRetries *obs.Counter
	Polls            *obs.Counter
	PollRecoveries   *obs.Counter
	StaleDenied      *obs.Counter
}

// NewMetrics resolves the subscriber bundle against reg; a nil reg yields
// standalone counters. The names carry no subscriber label, so a registry
// serves one subscriber — the only configuration that exists: one per
// daemon.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Notifies:         reg.OwnedCounter(MetricNotifies),
		NotifyDups:       reg.OwnedCounter(MetricNotifyDups),
		IXFR:             reg.OwnedCounter(MetricIXFR),
		AXFRFallback:     reg.OwnedCounter(MetricAXFRFallback),
		Purged:           reg.OwnedCounter(MetricPurged),
		Refetches:        reg.OwnedCounter(MetricRefetches),
		Subscribes:       reg.OwnedCounter(MetricSubscribes),
		SubscribeRetries: reg.OwnedCounter(MetricSubscribeRetries),
		Polls:            reg.OwnedCounter(MetricPolls),
		PollRecoveries:   reg.OwnedCounter(MetricPollRecoveries),
		StaleDenied:      reg.OwnedCounter(MetricStaleDenied),
	}
}

// AuthorityMetrics is the authority's counter bundle, likewise read by
// its Stats.
type AuthorityMetrics struct {
	Changes    *obs.Counter
	Notifies   *obs.Counter
	IXFRServed *obs.Counter
	AXFRServed *obs.Counter
}

// NewAuthorityMetrics resolves the authority bundle against reg; a nil reg
// yields standalone counters.
func NewAuthorityMetrics(reg *obs.Registry) *AuthorityMetrics {
	return &AuthorityMetrics{
		Changes:    reg.OwnedCounter(MetricFeedChanges),
		Notifies:   reg.OwnedCounter(MetricFeedNotifies),
		IXFRServed: reg.OwnedCounter(MetricFeedIXFRServed),
		AXFRServed: reg.OwnedCounter(MetricFeedAXFRServed),
	}
}
