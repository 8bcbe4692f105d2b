package resolver

import (
	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
)

// Refresh-ahead prefetch (the Pappas et al. proposal discussed in §7 of the
// paper, and the update-timing decoupling of Afek & Litmanovich): a cache
// hit on an entry nearing expiry re-resolves the name without charging the
// client, so the next hit after the old entry would have lapsed is still a
// hit. The trade is explicit — prefetch converts client misses into extra
// authoritative queries — so a trigger is skipped while a refresh for the
// same key is in flight (a flight.Group) and refreshes are rate-limited by
// Policy.PrefetchBudget (a bucket.Table).
//
// Under simnet's VirtualClock the refresh runs synchronously in virtual
// time: it completes "instantly" from the client's perspective (none of its
// upstream cost lands in res.Latency), which models an asynchronous
// background refresh while keeping experiments deterministic.

// maybePrefetch refreshes (name, qtype) without charging the client, unless
// an identical refresh is already in flight or the budget is spent.
// The stale-but-fresh entry stays in cache and keeps answering until the
// refreshed data replaces it (equal credibility replaces, per RFC 2181).
func (r *Resolver) maybePrefetch(name dnswire.Name, qtype dnswire.Type, res *Result) {
	led := r.prefetching.TryDo(cache.Key{Name: name, Type: qtype}, func() (*Result, error) {
		if r.prefetchBudget != nil {
			if ok, _ := r.prefetchBudget.Take(struct{}{}); !ok {
				res.Span.Annotate("prefetch", "budget-denied")
				r.Obs.PrefetchDenied.Inc()
				return nil, nil
			}
		}
		res.Span.Annotate("prefetch", "triggered")
		r.Obs.Prefetches.Inc()
		r.Cache.NotePrefetch()
		res.mayWait()
		// The refresh iterates into a scratch result: upstream query counts
		// still accrue at the authoritatives (the real price of prefetch),
		// but nothing is charged to the client resolution that triggered it.
		scratch := NewResult(nil, name, qtype)
		return scratch, r.iterate(name, qtype, scratch, 0)
	})
	if !led {
		res.Span.Annotate("prefetch", "coalesced")
		r.Obs.PrefetchCoalesced.Inc()
	}
}
