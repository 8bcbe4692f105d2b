package farm

import (
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/race"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

// world is the minimal two-level delegation the farm tests run against:
// a root and an example.org authoritative carrying test names.
type world struct {
	clock   *simnet.VirtualClock
	net     *simnet.Network
	root    netip.Addr
	orgAddr netip.Addr
	orgSrv  *authoritative.Server
}

func newWorld(t testing.TB, names []string, ttl uint32) *world {
	t.Helper()
	w := &world{
		clock:   simnet.NewVirtualClock(),
		net:     simnet.NewNetwork(1),
		root:    netip.MustParseAddr("192.88.30.1"),
		orgAddr: netip.MustParseAddr("192.88.30.2"),
	}
	rootZone := zone.New(dnswire.Root)
	rootZone.MustAdd(
		dnswire.NewSOA(".", 86400, "a.root-servers.net.", "x.example.", 1, 1, 1, 1, 86400),
		dnswire.NewNS(".", 518400, "a.root-servers.net"),
		dnswire.NewA("a.root-servers.net", 518400, w.root.String()),
		dnswire.NewNS("example.org", 172800, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 172800, w.orgAddr.String()),
	)
	org := zone.New(dnswire.NewName("example.org"))
	org.MustAdd(
		dnswire.NewSOA("example.org", 3600, "ns1.example.org", "x.example.org", 1, 1, 1, 1, 60),
		dnswire.NewNS("example.org", 86400, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 86400, w.orgAddr.String()),
	)
	for i, n := range names {
		org.MustAdd(dnswire.NewA(n, ttl, netip.AddrFrom4([4]byte{198, 18, 0, byte(i + 1)}).String()))
	}
	rootSrv := authoritative.NewServer(dnswire.NewName("a.root-servers.net"), w.clock)
	rootSrv.AddZone(rootZone)
	w.net.Attach(w.root, rootSrv)
	w.orgSrv = authoritative.NewServer(dnswire.NewName("ns1.example.org"), w.clock)
	w.orgSrv.AddZone(org)
	w.net.Attach(w.orgAddr, w.orgSrv)
	return w
}

func (w *world) farm(cfg Config) *Farm {
	cfg.Policy = resolver.DefaultPolicy()
	return New(cfg, netip.MustParseAddr("10.40.0.1"), w.net, w.clock, []netip.Addr{w.root})
}

var qname = dnswire.NewName("www.example.org")

// TestPrivateTopologyFragments pins the paper's core farm finding at unit
// scale: with private caches, a name queried until every frontend has
// served it is fetched from the authoritatives once per frontend; shared
// and sharded topologies fetch it once for the whole fleet.
func TestPrivateTopologyFragments(t *testing.T) {
	const frontends = 4
	for _, tc := range []struct {
		topo   Topology
		wantUp uint64 // authoritative fetches of the A record
	}{
		{topo: Private, wantUp: frontends},
		{topo: Shared, wantUp: 1},
		{topo: Sharded, wantUp: 1},
	} {
		t.Run(tc.topo.String(), func(t *testing.T) {
			w := newWorld(t, []string{"www.example.org"}, 3600)
			f := w.farm(Config{Frontends: frontends, Topology: tc.topo, Seed: 7})
			served := func() (n int) {
				for _, fe := range f.Stats().PerFrontend {
					if fe.Client > 0 {
						n++
					}
				}
				return n
			}
			for i := 0; served() < frontends; i++ {
				res, err := f.Resolve(qname, dnswire.TypeA)
				if err != nil || len(res.Msg.Answer) == 0 || i == 200 {
					t.Fatalf("resolve %d reached %d frontends: %v %v", i, served(), err, res)
				}
			}
			st := f.Stats()
			if want := st.Total.Client - tc.wantUp; st.Total.Hits != want {
				t.Errorf("%s: hits = %d, want %d\n%s", tc.topo, st.Total.Hits, want, st)
			}
			// Each cold iteration costs 2 exchanges (root referral + org
			// answer); every fleet-wide A fetch beyond the first costs 2 more.
			if st.Total.Upstream != 2*tc.wantUp {
				t.Errorf("%s: upstream = %d, want %d\n%s", tc.topo, st.Total.Upstream, 2*tc.wantUp, st)
			}
		})
	}
}

// TestShardedSpreadsKeys checks that the sharded topology actually spreads
// distinct names over distinct shards while keeping each name's entries on
// one shard.
func TestShardedSpreadsKeys(t *testing.T) {
	names := []string{"a.example.org", "b.example.org", "c.example.org", "d.example.org",
		"e.example.org", "f.example.org", "g.example.org", "h.example.org"}
	w := newWorld(t, names, 3600)
	f := w.farm(Config{Frontends: 4, Topology: Sharded, Seed: 7})
	for _, n := range names {
		if _, err := f.Resolve(dnswire.NewName(n), dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	pool, ok := f.store.(*cache.Sharded)
	if !ok || pool.NumShards() != 4 {
		t.Fatalf("store is not a 4-shard pool: %T", f.store)
	}
	occupied, total := 0, 0
	for i := 0; i < 4; i++ {
		l := pool.Shard(i).Len()
		total += l
		if l > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Errorf("all keys landed on %d shard(s); want spread over ≥2", occupied)
	}
	if total != f.store.Len() {
		t.Errorf("shard lens sum %d != Len %d", total, f.store.Len())
	}
}

// TestCoalescingCollapsesConcurrentMisses is the acceptance-criteria
// assertion: K concurrent identical cold queries trigger exactly one
// upstream iteration; the other K-1 join the in-flight resolution.
//
// The scenario is made deterministic by gating the authoritative: the
// leader blocks inside its org exchange until all followers have joined
// the flight, so every follower is provably concurrent with it.
func TestCoalescingCollapsesConcurrentMisses(t *testing.T) {
	const clients = 8
	w := newWorld(t, []string{"www.example.org"}, 3600)

	release := make(chan struct{})
	orgQueriesForName := 0
	var gateMu sync.Mutex
	inner := w.orgSrv
	w.net.Attach(w.orgAddr, simnet.HandlerFunc(func(wire []byte, from netip.Addr) []byte {
		if q, err := dnswire.Decode(wire); err == nil && len(q.Question) > 0 &&
			q.Q().Name == qname && q.Q().Type == dnswire.TypeA {
			gateMu.Lock()
			orgQueriesForName++
			gateMu.Unlock()
			<-release
		}
		return inner.ServeDNS(wire, from)
	}))

	f := w.farm(Config{Frontends: 4, Topology: Private, Coalesce: true, Seed: 7})
	results := make([]*resolver.Result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := f.Resolve(qname, dnswire.TypeA)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}

	// Wait until the leader is blocked upstream and all K-1 followers have
	// joined the flight, then let the single iteration finish.
	key := cache.Key{Name: qname, Type: dnswire.TypeA}
	deadline := time.Now().Add(10 * time.Second)
	for f.flight.InFlight(key) < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers joined the flight", f.flight.InFlight(key), clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if orgQueriesForName != 1 {
		t.Errorf("authoritative saw %d queries for %s, want 1 (coalesced)", orgQueriesForName, qname)
	}
	leaders, coalesced := 0, 0
	for i, res := range results {
		if res == nil {
			t.Fatalf("client %d got no result", i)
		}
		if len(res.Msg.Answer) == 0 {
			t.Errorf("client %d: empty answer", i)
		}
		if res.Coalesced {
			coalesced++
			if res.Queries != 0 {
				t.Errorf("coalesced result charged %d upstream queries", res.Queries)
			}
		} else if res.Queries > 0 {
			leaders++
		}
	}
	if leaders != 1 || coalesced != clients-1 {
		t.Errorf("leaders=%d coalesced=%d, want 1 and %d", leaders, coalesced, clients-1)
	}
	st := f.Stats()
	if st.Total.Coalesced != clients-1 {
		t.Errorf("telemetry coalesced = %d, want %d\n%s", st.Total.Coalesced, clients-1, st)
	}
	if st.Total.Upstream != 2 {
		t.Errorf("telemetry upstream = %d, want 2 (root + org)\n%s", st.Total.Upstream, st)
	}
}

// TestPlacementDeterminism: the same seed produces the same frontend picks,
// and a farm of one always picks frontend 0.
func TestPlacementDeterminism(t *testing.T) {
	a, b := newBalancer(8, 42), newBalancer(8, 42)
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		x, y := a.pick(), b.pick()
		if x != y {
			t.Fatalf("random placement diverged at pick %d: %d vs %d", i, x, y)
		}
		seen[x] = true
	}
	if len(seen) != 8 {
		t.Errorf("200 picks reached %d of 8 frontends", len(seen))
	}
	lone := newBalancer(1, 42)
	for i := 0; i < 10; i++ {
		if got := lone.pick(); got != 0 {
			t.Fatalf("farm of one picked frontend %d", got)
		}
	}
}

// TestTopologyPlacementText pins the -cache-topology spelling table: every
// value round-trips through MarshalText/UnmarshalText and String agrees, a
// bad value fails naming the accepted spellings, and an out-of-range value
// prints as itself rather than as a valid one.
func TestTopologyPlacementText(t *testing.T) {
	for _, v := range []Topology{Private, Shared, Sharded} {
		b, err := v.MarshalText()
		var got Topology
		if err != nil || got.UnmarshalText(b) != nil || got != v || string(b) != v.String() {
			t.Errorf("%v: MarshalText = %q, %v; back %v", v, b, err, got)
		}
	}
	for _, in := range []string{"hash", "", "bogus"} {
		var topo Topology
		if err := topo.UnmarshalText([]byte(in)); err == nil || !strings.Contains(err.Error(), `"private" "shared" "sharded"`) {
			t.Errorf("Topology.UnmarshalText(%q) = %v, want an error naming the spellings", in, err)
		}
	}
	if got := Topology(7).String(); got != "Topology(7)" {
		t.Errorf("out-of-range value prints as %q", got)
	}
}

// TestFarmCacheStatsAggregate: the fleet cache counters add up across
// topologies.
func TestFarmCacheStatsAggregate(t *testing.T) {
	for _, topo := range []Topology{Private, Shared, Sharded} {
		w := newWorld(t, []string{"www.example.org"}, 3600)
		f := w.farm(Config{Frontends: 3, Topology: topo, Seed: 7})
		for i := 0; i < 6; i++ {
			if _, err := f.Resolve(qname, dnswire.TypeA); err != nil {
				t.Fatal(err)
			}
		}
		st := f.CacheStats()
		if st.Entries == 0 || st.Hits == 0 {
			t.Errorf("%s: empty aggregate cache stats: %+v", topo, st)
		}
	}
}

// BenchmarkFarmResolve measures the farm hot path on a warm shared cache —
// the configuration where every query contends on the same store.
func BenchmarkFarmResolve(b *testing.B) {
	for _, topo := range []Topology{Shared, Sharded} {
		b.Run(topo.String(), func(b *testing.B) {
			w := newWorld(b, []string{"www.example.org"}, 86400)
			f := w.farm(Config{Frontends: 8, Topology: topo, Coalesce: true, Seed: 7})
			if _, err := f.Resolve(qname, dnswire.TypeA); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := f.Resolve(qname, dnswire.TypeA); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// TestResolveHitAllocs pins an in-process cache hit at no allocation into
// lent storage and one, the Result the caller keeps, without it. The Query
// handed down the pipeline is pooled.
func TestResolveHitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts of pooled paths are not stable under -race")
	}
	w := newWorld(t, []string{"www.example.org"}, 3600)
	f := w.farm(Config{Frontends: 4, Topology: Shared, Coalesce: true})
	if _, err := f.Resolve(qname, dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	ctx, dst := context.Background(), new(resolver.Result)
	for _, tc := range []struct {
		name   string
		dst    *resolver.Result
		budget float64
	}{{"lent", dst, 0}, {"nil", nil, 1}} {
		allocs := testing.AllocsPerRun(200, func() {
			if res, err := f.ResolveInto(ctx, tc.dst, qname, dnswire.TypeA); err != nil || !res.CacheHit {
				t.Fatalf("warm resolve: %+v, %v", res, err)
			}
		})
		if allocs > tc.budget {
			t.Errorf("cached ResolveInto with %s storage costs %.1f allocs, budget %v", tc.name, allocs, tc.budget)
		}
	}
}

// TestLentResultNeverShared pins the lent-storage rule through the farm's
// pipeline and flight group: a coalesced miss's Result is shared with its
// followers, so it is never the storage its caller lent (ResolveInto), and
// nothing the shared cache keeps aliases that storage.
func TestLentResultNeverShared(t *testing.T) {
	other := dnswire.NewName("other.example.org")
	ctx := context.Background()
	// answers reports whether res is the one-record A answer for qname.
	answers := func(res *resolver.Result) bool {
		m := res.Msg
		return m.Header.RCode == dnswire.RCodeNoError && len(m.Question) == 1 && m.Q().Name == qname &&
			len(m.Answer) == 1 && m.Answer[0].Name == qname &&
			m.Answer[0].Data.(dnswire.A).Addr == netip.MustParseAddr("198.18.0.1")
	}

	t.Run("coalesced miss", func(t *testing.T) {
		const clients = 4
		w := newWorld(t, []string{"www.example.org", "other.example.org"}, 3600)
		release := make(chan struct{})
		inner := w.orgSrv
		w.net.Attach(w.orgAddr, simnet.HandlerFunc(func(wire []byte, from netip.Addr) []byte {
			if q, err := dnswire.Decode(wire); err == nil && len(q.Question) > 0 && q.Q().Name == qname {
				<-release
			}
			return inner.ServeDNS(wire, from)
		}))
		f := w.farm(Config{Frontends: 4, Topology: Shared, Coalesce: true, Seed: 7})
		if _, err := f.Resolve(other, dnswire.TypeA); err != nil { // the name reused storage takes
			t.Fatal(err)
		}
		dsts, results := make([]*resolver.Result, clients), make([]*resolver.Result, clients)
		var wg sync.WaitGroup
		for i := range dsts {
			dsts[i] = new(resolver.Result)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := f.ResolveInto(ctx, dsts[i], qname, dnswire.TypeA)
				if err != nil {
					t.Errorf("client %d: %v", i, err)
				}
				results[i] = res
			}(i)
		}
		key := cache.Key{Name: qname, Type: dnswire.TypeA}
		for deadline := time.Now().Add(10 * time.Second); f.flight.InFlight(key) < clients-1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d followers joined the flight", f.flight.InFlight(key), clients-1)
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
		if res, err := f.ResolveInto(ctx, dsts[leader], other, dnswire.TypeA); err != nil || res != dsts[leader] {
			t.Fatalf("hit into reused storage: %p (lent %p), %v", res, dsts[leader], err)
		}
		for i, res := range results {
			if !answers(res) {
				t.Errorf("client %d (leader %v) reads %v after the leader's storage was reused", i, i == leader, res.Msg)
			}
		}
	})

	t.Run("hit then garbage", func(t *testing.T) {
		w := newWorld(t, []string{"www.example.org"}, 3600)
		f := w.farm(Config{Frontends: 4, Topology: Shared, Coalesce: true})
		if _, err := f.Resolve(qname, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
		dst := new(resolver.Result)
		res, err := f.ResolveInto(ctx, dst, qname, dnswire.TypeA)
		if err != nil || res != dst || !res.CacheHit || !answers(res) {
			t.Fatalf("hit into lent storage: %p (lent %p) %+v, %v", res, dst, res, err)
		}
		// Scribble over the answer in place, then refill the storage.
		junk := dnswire.RR{Name: dnswire.NewName("junk.invalid"), Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("203.0.113.9")}}
		res.Msg.Answer[0] = junk
		res.Msg.Question[0].Name = junk.Name
		resolver.NewResult(dst, junk.Name, dnswire.TypeMX)
		for range 3 {
			dst.Msg.AddAnswer(junk)
		}
		dst.Msg.Header.RCode = dnswire.RCodeServFail
		dst.Trace = resolver.Trace{Queries: 99, Stale: true, AnswerTTL: 7}

		for _, lend := range []*resolver.Result{dst, nil} {
			res, err := f.ResolveInto(ctx, lend, qname, dnswire.TypeA)
			if err != nil || !res.CacheHit || res.Queries != 0 || res.Stale || !answers(res) {
				t.Errorf("hit after the lent storage was scribbled on (lent %v): %v %+v, %v", lend != nil, res.Msg, res.Trace, err)
			}
		}
		e, _, ok := f.store.Get(qname, dnswire.TypeA)
		if !ok || len(e.RRs) != 1 || e.RRs[0].Data.(dnswire.A).Addr != netip.MustParseAddr("198.18.0.1") {
			t.Errorf("cache entry after the lent storage was scribbled on: %+v, %v", e, ok)
		}
	})
}
