package resolver

import (
	"time"

	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
)

// Refresh-ahead prefetch (the Pappas et al. proposal discussed in §7 of the
// paper, and the update-timing decoupling of Afek & Litmanovich): a cache
// hit on an entry nearing expiry re-resolves the name without charging the
// client, so the next hit after the old entry would have lapsed is still a
// hit. The trade is explicit — prefetch converts client misses into extra
// authoritative queries — so triggers are coalesced while a refresh for the
// same key is in flight and capped by Policy.PrefetchBudget per window.
//
// Under simnet's VirtualClock the refresh runs synchronously in virtual
// time: it completes "instantly" from the client's perspective (none of its
// upstream cost lands in res.Latency), which models an asynchronous
// background refresh while keeping experiments deterministic.

// prefetchBudgetWindow is the clock window over which Policy.PrefetchBudget
// prefetches may be issued.
const prefetchBudgetWindow = 60 * time.Second

// maybePrefetch refreshes (name, qtype) without charging the client, unless
// an identical refresh is already in flight or the budget window is spent.
// The stale-but-fresh entry stays in cache and keeps answering until the
// refreshed data replaces it (equal credibility replaces, per RFC 2181).
func (r *Resolver) maybePrefetch(name dnswire.Name, qtype dnswire.Type, res *Result) {
	k := cache.Key{Name: name, Type: qtype}
	now := r.Clock.Now()

	r.prefetchMu.Lock()
	if _, busy := r.prefetchInflight[k]; busy {
		r.prefetchMu.Unlock()
		res.Span.Annotate("prefetch", "coalesced")
		r.Obs.PrefetchCoalesced.Inc()
		return
	}
	if b := r.Policy.PrefetchBudget; b > 0 {
		if now.Sub(r.prefetchWindow) >= prefetchBudgetWindow {
			r.prefetchWindow = now
			r.prefetchSpent = 0
		}
		if r.prefetchSpent >= b {
			r.prefetchMu.Unlock()
			res.Span.Annotate("prefetch", "budget-denied")
			r.Obs.PrefetchDenied.Inc()
			return
		}
		r.prefetchSpent++
	}
	if r.prefetchInflight == nil {
		r.prefetchInflight = make(map[cache.Key]struct{})
	}
	r.prefetchInflight[k] = struct{}{}
	r.prefetchMu.Unlock()

	res.Span.Annotate("prefetch", "triggered")
	r.Obs.Prefetches.Inc()
	if r.Cache != nil {
		r.Cache.NotePrefetch()
	}

	// The refresh iterates into a scratch result: upstream query counts
	// still accrue at the authoritatives (the real price of prefetch), but
	// nothing is charged to the client resolution that triggered it.
	scratch := &Result{Msg: &dnswire.Message{}}
	_ = r.iterate(name, qtype, scratch, 0)

	r.prefetchMu.Lock()
	delete(r.prefetchInflight, k)
	r.prefetchMu.Unlock()
}
