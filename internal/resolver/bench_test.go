package resolver

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/race"
)

// skipAllocPinUnderRace skips an allocation-count assertion in a -race build:
// sync.Pool drops Puts at random there, so pooled paths allocate a different
// number of times every run.
func skipAllocPinUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts of pooled paths are not stable under -race")
	}
}

// BenchmarkResolveCacheHit measures a warm lookup through the resolver.
func BenchmarkResolveCacheHit(b *testing.B) {
	tn := newTestNet(&testing.T{})
	r := tn.resolver(DefaultPolicy(), 1)
	name := dnswire.NewName("www.cachetest.net")
	if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Resolve(name, dnswire.TypeA)
		if err != nil || !res.CacheHit {
			b.Fatal("expected cache hit")
		}
	}
}

// BenchmarkResolveColdWalk measures a full root-to-leaf iteration (the
// cache expires between iterations).
func BenchmarkResolveColdWalk(b *testing.B) {
	tn := newTestNet(&testing.T{})
	r := tn.resolver(DefaultPolicy(), 1)
	name := dnswire.NewName("www.cachetest.net")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Cache.Flush()
		if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
		tn.clock.Advance(time.Second)
	}
}

// BenchmarkResolveRetryColdWalk is the cold walk with the full retry plane
// armed (attempts, backoff+jitter, SRTT ordering). On the healthy path the
// plane must cost nothing: no retries fire, and the only extra work per
// exchange is the SRTT bookkeeping.
func BenchmarkResolveRetryColdWalk(b *testing.B) {
	tn := newTestNet(&testing.T{})
	pol := DefaultPolicy()
	pol.Retry = RetryPolicy{
		Attempts: 4, Backoff: 200 * time.Millisecond, Jitter: 0.5,
		OrderBySRTT: true,
	}
	r := tn.resolver(pol, 1)
	name := dnswire.NewName("www.cachetest.net")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Cache.Flush()
		res, err := r.Resolve(name, dnswire.TypeA)
		if err != nil {
			b.Fatal(err)
		}
		if res.Retries != 0 {
			b.Fatal("retries fired on a healthy network")
		}
		tn.clock.Advance(time.Second)
	}
}

// TestRetryPlaneAllocNeutral pins the retry plane's happy-path allocation
// cost at zero: a cold resolution with the full policy armed allocates no
// more than the legacy single-shot path, so arming retries fleet-wide is
// free until a fault actually bites.
func TestRetryPlaneAllocNeutral(t *testing.T) {
	skipAllocPinUnderRace(t)
	name := dnswire.NewName("www.cachetest.net")
	coldAllocs := func(pol Policy) float64 {
		tn := newTestNet(t)
		r := tn.resolver(pol, 1)
		if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			r.Cache.Flush()
			if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
				t.Fatal(err)
			}
			tn.clock.Advance(time.Second)
		})
	}
	retryPol := DefaultPolicy()
	retryPol.Retry = RetryPolicy{
		Attempts: 4, Backoff: 200 * time.Millisecond, Jitter: 0.5,
		OrderBySRTT: true,
	}
	base, retry := coldAllocs(DefaultPolicy()), coldAllocs(retryPol)
	if retry > base+0.5 {
		t.Errorf("retry plane allocates on the healthy path: %.1f vs %.1f allocs/op", retry, base)
	}
}

// TestResolveLeafMissAllocs pins the allocation budget of a leaf miss: a
// never-seen name under a zone whose servers are cached, resolved over simnet
// from the authoritative and back — one upstream exchange. What is left is
// what the resolution keeps: the Result (none when the caller lends it), the
// boxed A RData (a never-seen address interns on first sight), the cache
// Entry, which holds the answer's one record. The server list built from the
// cached delegation lands in the iteration's pooled scratch, the reply is
// encoded into the resolver's pooled buffer, and neither decoder spells the
// name again: the authoritative borrows it from its zone, the resolver from
// its question.
func TestResolveLeafMissAllocs(t *testing.T) {
	skipAllocPinUnderRace(t)
	const runs = 200
	tn := newTestNet(t)
	names := make([]dnswire.Name, 2*runs+1)
	for i := range names {
		names[i] = dnswire.NewName(fmt.Sprintf("h%04d.cachetest.net", i))
		tn.ct.MustAdd(dnswire.RR{Name: names[i], Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})}})
	}
	r := tn.resolver(DefaultPolicy(), 1)
	if _, err := r.Resolve(names[0], dnswire.TypeA); err != nil { // caches the delegation chain
		t.Fatal(err)
	}
	ctx, next := context.Background(), 1
	for _, tc := range []struct {
		name   string
		dst    *Result
		budget float64
	}{{"nil", nil, 3}, {"lent", new(Result), 2}} {
		// AllocsPerRun's warm-up call takes one name more than its runs.
		allocs := testing.AllocsPerRun(runs-1, func() {
			res, err := r.ResolveInto(ctx, tc.dst, names[next], dnswire.TypeA)
			if err != nil || res.Queries != 1 || len(res.Msg.Answer) != 1 {
				t.Fatalf("leaf miss for %s: %+v, %v", names[next], res, err)
			}
			next++
		})
		if allocs > tc.budget {
			t.Errorf("leaf miss into %s storage costs %.1f allocs/op, budget %v", tc.name, allocs, tc.budget)
		}
	}
}
