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

// metrics is the subscriber's counter set: Stats reads the counters a
// configured registry publishes.
type metrics struct {
	notifies, notifyDups, ixfr, axfrFallback, purged, refetches obs.Counter
	subscribes, subscribeRetries, polls, pollRecoveries         obs.Counter
	staleDenied                                                 obs.Counter
}

// publish exports the subscriber counters in reg. The names carry no
// subscriber label, so a registry serves one subscriber — the only
// configuration that exists: one per daemon.
func (m *metrics) publish(reg *obs.Registry) {
	for name, c := range map[string]*obs.Counter{
		MetricNotifies: &m.notifies, MetricNotifyDups: &m.notifyDups,
		MetricIXFR: &m.ixfr, MetricAXFRFallback: &m.axfrFallback,
		MetricPurged: &m.purged, MetricRefetches: &m.refetches,
		MetricSubscribes: &m.subscribes, MetricSubscribeRetries: &m.subscribeRetries,
		MetricPolls: &m.polls, MetricPollRecoveries: &m.pollRecoveries,
		MetricStaleDenied: &m.staleDenied,
	} {
		reg.CounterFunc(name, c.Value)
	}
}
