package resolver

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/flight"
	"dnsttl/internal/simnet"
)

// TestLentResultNeverShared pins the lent-storage rule of ResolveInto: a
// Result that leads a flight is shared with its followers, so it never lives
// in the storage its caller lent, and nothing the cache keeps aliases that
// storage.
func TestLentResultNeverShared(t *testing.T) {
	www := dnswire.NewName("www.cachetest.net")
	probe := dnswire.NewName("probe.sub.cachetest.net")
	ctx := context.Background()
	// answers reports whether res is the one-record A answer for www.
	answers := func(res *Result) bool {
		m := res.Msg
		return m.Header.RCode == dnswire.RCodeNoError && len(m.Question) == 1 && m.Q().Name == www &&
			len(m.Answer) == 1 && m.Answer[0].Name == www &&
			m.Answer[0].Data.(dnswire.A).Addr == netip.MustParseAddr("192.0.2.80")
	}

	t.Run("coalesced miss", func(t *testing.T) {
		const clients = 4
		tn := newTestNet(t)
		// cachetest.net's server holds www's query until every follower
		// has joined the leader's flight.
		release := make(chan struct{})
		ct := authoritative.NewServer(dnswire.NewName("ns1.cachetest.net"), tn.clock)
		ct.AddZone(tn.ct)
		tn.net.Attach(tn.ctAddr, simnet.HandlerFunc(func(wire []byte, from netip.Addr) []byte {
			if q, err := dnswire.Decode(wire); err == nil && len(q.Question) > 0 && q.Q().Name == www {
				<-release
			}
			return ct.ServeDNS(wire, from)
		}))
		r := tn.resolver(DefaultPolicy(), 1)
		var g flight.Group[cache.Key, *Result]
		r.Coalesce = func(k cache.Key, lead func() (*Result, error)) (*Result, error, bool) {
			return g.Do(k, func() {}, lead)
		}
		// A name the leader's caller reuses its storage for: a hit.
		if res, err := r.Resolve(probe, dnswire.TypeAAAA); err != nil || len(res.Msg.Answer) != 1 {
			t.Fatalf("warm %s: %+v, %v", probe, res, err)
		}

		dsts, results := make([]*Result, clients), make([]*Result, clients)
		var wg sync.WaitGroup
		for i := range dsts {
			dsts[i] = new(Result)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := r.ResolveInto(ctx, dsts[i], www, dnswire.TypeA)
				if err != nil {
					t.Errorf("client %d: %v", i, err)
				}
				results[i] = res
			}(i)
		}
		key := cache.Key{Name: www, Type: dnswire.TypeA}
		for deadline := time.Now().Add(10 * time.Second); g.InFlight(key) < clients-1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d followers joined the flight", g.InFlight(key), clients-1)
			}
		}
		close(release)
		wg.Wait()

		leader := -1
		for i, res := range results {
			if res == nil {
				t.Fatalf("client %d got no result", i)
			}
			if res == dsts[i] {
				t.Errorf("client %d: a coalesced miss was written into its lent storage", i)
			}
			if !res.Coalesced {
				leader = i
			}
		}
		if leader < 0 {
			t.Fatal("no client led the flight")
		}
		// The leader's caller is done reading: its storage takes a hit for
		// another name while the followers still read theirs.
		if res, err := r.ResolveInto(ctx, dsts[leader], probe, dnswire.TypeAAAA); err != nil || res != dsts[leader] {
			t.Fatalf("hit into reused storage: %p (lent %p), %v", res, dsts[leader], err)
		}
		for i, res := range results {
			if !answers(res) {
				t.Errorf("client %d (leader %v) reads %v after the leader's storage was reused", i, i == leader, res.Msg)
			}
		}
	})

	t.Run("hit then garbage", func(t *testing.T) {
		tn := newTestNet(t)
		r := tn.resolver(DefaultPolicy(), 1)
		if _, err := r.Resolve(www, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
		dst := new(Result)
		res, err := r.ResolveInto(ctx, dst, www, dnswire.TypeA)
		if err != nil || res != dst || !res.CacheHit || !answers(res) {
			t.Fatalf("hit into lent storage: %p (lent %p) %+v, %v", res, dst, res, err)
		}
		// Scribble over everything the caller lent, inline storage included.
		junk := dnswire.RR{Name: dnswire.NewName("junk.invalid"), Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("203.0.113.9")}}
		for i := range dst.answer {
			dst.answer[i] = junk
		}
		dst.question[0] = dnswire.Question{Name: junk.Name, Type: dnswire.TypeMX}
		dst.msg = dnswire.Message{Header: dnswire.Header{RCode: dnswire.RCodeServFail}, Answer: dst.answer[:]}
		dst.Trace = Trace{Queries: 99, Stale: true, AnswerTTL: 7}

		for _, lend := range []*Result{dst, nil} {
			res, err := r.ResolveInto(ctx, lend, www, dnswire.TypeA)
			if err != nil || !res.CacheHit || res.Queries != 0 || res.Stale || !answers(res) {
				t.Errorf("hit after the lent storage was scribbled on (lent %v): %v %+v, %v", lend != nil, res.Msg, res.Trace, err)
			}
		}
		e, _, ok := r.Cache.Get(www, dnswire.TypeA)
		if !ok || len(e.RRs) != 1 || e.RRs[0].Data.(dnswire.A).Addr != netip.MustParseAddr("192.0.2.80") {
			t.Errorf("cache entry after the lent storage was scribbled on: %+v, %v", e, ok)
		}
	})
}
