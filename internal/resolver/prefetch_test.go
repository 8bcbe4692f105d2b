package resolver

import (
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

// TestPrefetchFraction pins the fraction-of-TTL trigger: with
// PrefetchFraction 0.5 a 300 s record refreshes on hits in its last 150 s —
// and not before.
func TestPrefetchFraction(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.PrefetchFraction = 0.5
	r := tn.resolver(pol, 1)
	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)

	// 100 s in: remaining 200 > 150 — no refresh yet.
	tn.clock.Advance(100 * time.Second)
	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	tn.clock.Advance(100 * time.Second)
	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if !res.CacheHit || res.AnswerTTL != 100 {
		t.Fatalf("expected an un-refreshed hit at 100 s left: hit=%v ttl=%d",
			res.CacheHit, res.AnswerTTL)
	}
	// That hit (100 ≤ 150) triggered the refresh: a query after the
	// original entry would have expired still hits, with a restored TTL.
	tn.clock.Advance(150 * time.Second)
	res = mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if !res.CacheHit || res.AnswerTTL != 150 {
		t.Errorf("post-refresh: hit=%v ttl=%d, want hit with 150 s left",
			res.CacheHit, res.AnswerTTL)
	}
}

// TestPrefetchBudget pins the per-minute cap: with PrefetchBudget 1, the
// second distinct trigger in the same instant is denied (and counted), and
// a minute later the bucket has refilled one token.
func TestPrefetchBudget(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.PrefetchFraction = 0.9 // nearly every hit triggers
	pol.PrefetchBudget = 1
	r := tn.resolver(pol, 1)
	reg := obs.NewRegistry(tn.clock)
	r.Obs = NewMetrics(reg)

	// www: TTL 300, triggers once 30 s old. probe: TTL 60, triggers at 6 s.
	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	mustResolve(t, r, "probe.sub.cachetest.net", dnswire.TypeAAAA)
	tn.clock.Advance(40 * time.Second) // both records inside their last 90 %

	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA) // spends the budget
	mustResolve(t, r, "probe.sub.cachetest.net", dnswire.TypeAAAA)
	snap := reg.Snapshot()
	if got := snap.Counters[MetricPrefetches]; got != 1 {
		t.Errorf("prefetches = %d, want 1 (budget is 1)", got)
	}
	if got := snap.Counters[MetricPrefetchDenied]; got != 1 {
		t.Errorf("budget denials = %d, want 1", got)
	}

	// A minute refills one token: the refreshed www entry (now 60 s old,
	// again inside its last 90 %) prefetches once more.
	tn.clock.Advance(time.Minute)
	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if got := reg.Snapshot().Counters[MetricPrefetches]; got != 2 {
		t.Errorf("prefetches after window reset = %d, want 2", got)
	}
}

// TestPrefetchDoesNotChargeClient: the triggering resolution is a pure
// cache hit — zero upstream queries and zero latency land on the client —
// while the authoritatives see the refresh traffic.
func TestPrefetchDoesNotChargeClient(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.PrefetchFraction = 0.5
	r := tn.resolver(pol, 1)
	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	upstreamBefore, _ := tn.net.Stats()

	tn.clock.Advance(200 * time.Second)
	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if !res.CacheHit || res.Queries != 0 {
		t.Errorf("triggering hit charged the client: hit=%v queries=%d",
			res.CacheHit, res.Queries)
	}
	if after, _ := tn.net.Stats(); after <= upstreamBefore {
		t.Errorf("authoritatives saw no refresh traffic (%d before, %d after)",
			upstreamBefore, after)
	}
}

// TestPrefetchSkipsNegative: negative entries (NXDOMAIN/NODATA) are not
// refresh-ahead candidates — renewing a proof of absence buys nothing.
func TestPrefetchSkipsNegative(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.PrefetchFraction = 0.99
	r := tn.resolver(pol, 1)
	reg := obs.NewRegistry(tn.clock)
	r.Obs = NewMetrics(reg)

	if _, err := r.Resolve(dnswire.NewName("nope.cachetest.net"), dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	tn.clock.Advance(30 * time.Second)
	if _, err := r.Resolve(dnswire.NewName("nope.cachetest.net"), dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters[MetricPrefetches]; got != 0 {
		t.Errorf("negative entry triggered %d prefetches", got)
	}
}
