package resolver

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
	"dnsttl/internal/transport"
	"dnsttl/internal/zone"
)

// TestConcurrentResolutionsUnderChaos hammers one shared resolver — retry
// plane, hedging, and SRTT ordering all armed — from many goroutines while
// the virtual clock advances underneath and a fault schedule flips the
// authoritative between up and down. Run with -race this covers every lock
// in the retry plane: the RNG draw for jitter, the SRTT table, the sticky
// map, and the shared cache.
func TestConcurrentResolutionsUnderChaos(t *testing.T) {
	tn := newTestNet(t)
	tn.net.Clock = tn.clock
	// Unique names resolve through a wildcard so every goroutine's stream
	// misses the cache and exercises the full retry path.
	tn.ct.MustAdd(dnswire.NewA("*.w.cachetest.net", 60, "192.0.2.81"))
	// A second cachetest.net nameserver so hedging has a backup candidate.
	ct2 := netip.MustParseAddr("192.0.2.2")
	tn.netZone.MustAdd(
		dnswire.NewNS("cachetest.net", 172800, "ns2.cachetest.net"),
		dnswire.NewA("ns2.cachetest.net", 172800, ct2.String()),
	)
	ns2 := authoritative.NewServer(dnswire.NewName("ns2.cachetest.net"), tn.clock)
	ns2.AddZone(tn.ct)
	tn.net.Attach(ct2, ns2)
	// The primary flaps while a mild loss burst runs unbounded.
	tn.net.Faults = simnet.NewFaultSchedule(
		simnet.Flap(tn.ctAddr, 0, 0, 10*time.Second, 0.3),
		simnet.LossBurst(ct2, 0, 0, 0.2),
	)

	pol := DefaultPolicy()
	pol.ServeStale = true
	pol.Retry = RetryPolicy{
		Attempts: 3, Backoff: 2 * time.Second, Jitter: 0.5,
		Hedge: 100 * time.Millisecond, OrderBySRTT: true,
	}
	r := tn.resolver(pol, 7)

	const goroutines = 8
	const perG = 25
	var answered atomic.Int64
	done := make(chan struct{})
	var advancer sync.WaitGroup
	advancer.Add(1)
	go func() {
		defer advancer.Done()
		for {
			select {
			case <-done:
				return
			default:
				tn.clock.Advance(700 * time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := dnswire.NewName(fmt.Sprintf("n%d-%d.w.cachetest.net", g, i))
				res, err := r.Resolve(name, dnswire.TypeA)
				if err != nil {
					continue // faults may exhaust the budget; that's the point
				}
				if res.Msg.Header.RCode == dnswire.RCodeNoError && len(res.Msg.Answer) > 0 {
					answered.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	advancer.Wait()

	// The retry plane should rescue a healthy majority despite the chaos.
	if got := answered.Load(); got < goroutines*perG/2 {
		t.Errorf("answered %d of %d resolutions; expected the retry plane to carry most", got, goroutines*perG)
	}
}

// TestConcurrentPrefetch: hits on one near-expiry name from many goroutines
// share the refresh-ahead flight group and budget bucket. Each client is
// charged nothing, and with the clock stopped no more refreshes run than
// the budget's burst.
func TestConcurrentPrefetch(t *testing.T) {
	const goroutines, perG, budget = 8, 50, 3
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.PrefetchFraction, pol.PrefetchBudget = 0.99, budget
	r := tn.resolver(pol, 1)
	reg := obs.NewRegistry(tn.clock)
	r.Obs = NewMetrics(reg)
	names := []string{"www.cachetest.net", "alias.cachetest.net", "ns1.cachetest.net"}
	for _, n := range names {
		mustResolve(t, r, n, dnswire.TypeA)
	}
	tn.clock.Advance(10 * time.Second) // every entry inside its last 99 %

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				n := names[(g+i)%len(names)]
				res, err := r.Resolve(dnswire.NewName(n), dnswire.TypeA)
				if err != nil || !res.CacheHit || res.Queries != 0 {
					t.Errorf("%s: hit=%v queries=%d err=%v; a refresh was charged to a client", n, res.CacheHit, res.Queries, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Snapshot().Counters[MetricPrefetches]; got == 0 || got > budget {
		t.Errorf("%d refreshes ran, want 1..%d (the budget's burst, clock stopped)", got, budget)
	}
}

// TestSRTTTableRace hammers every srttTable operation from concurrent
// goroutines — the table is shared by all of a resolver's in-flight
// resolutions, so observe/penalize racing estimate/sortBySRTT is the normal
// state of the world under load.
func TestSRTTTableRace(t *testing.T) {
	tab := newSRTTTable()
	addrs := []netip.Addr{
		netip.MustParseAddr("192.0.2.1"),
		netip.MustParseAddr("192.0.2.2"),
		netip.MustParseAddr("192.0.2.3"),
		netip.MustParseAddr("192.0.2.4"),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a := addrs[(g+i)%len(addrs)]
				switch i % 4 {
				case 0:
					tab.observe(a, time.Duration(1+i%50)*time.Millisecond)
				case 1:
					tab.penalize(a, 100*time.Millisecond)
				case 2:
					tab.estimate(a)
				case 3:
					order := append([]netip.Addr(nil), addrs...)
					tab.sortBySRTT(order)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, a := range addrs {
		if est, ok := tab.estimate(a); !ok || est <= 0 {
			t.Errorf("server %v lost its estimate under concurrency: %v %v", a, est, ok)
		}
	}
}

// TestConcurrentLeafMissesOverUDP resolves distinct never-seen names from
// many goroutines through one Resolver over the real UDP transport, against
// an authoritative on loopback: every answer must carry its own name's
// address. Each exchange's reply lands in a pooled buffer that the next
// resolution reuses, and both decoders borrow their names instead of
// copying them, so under -race this covers the reply's whole journey.
func TestConcurrentLeafMissesOverUDP(t *testing.T) {
	const goroutines, perG = 8, 40
	root := zone.New(dnswire.Root)
	root.MustAdd(
		dnswire.NewSOA(".", 86400, "a.root-servers.net", "x", 1, 1, 1, 1, 60),
		dnswire.NewNS(".", 86400, "a.root-servers.net"),
		dnswire.NewA("a.root-servers.net", 86400, "127.0.0.1"),
	)
	addrOf := func(g, i int) netip.Addr { return netip.AddrFrom4([4]byte{10, byte(g), byte(i), 1}) }
	nameOf := func(g, i int) dnswire.Name { return dnswire.NewName(fmt.Sprintf("h%d-%d.example", g, i)) }
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			root.MustAdd(dnswire.RR{Name: nameOf(g, i), Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.A{Addr: addrOf(g, i)}})
		}
	}
	srv := authoritative.NewServer(dnswire.NewName("a.root-servers.net"), nil)
	srv.AddZone(root)
	us := &authoritative.UDPServer{Handler: srv}
	addr, err := us.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()
	tr, err := transport.New(transport.Config{Kind: transport.UDP, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	upstream := transport.NewNet(tr, addr.Port())
	defer upstream.Close()
	r := New(netip.MustParseAddr("127.0.0.1"), DefaultPolicy(), upstream, nil, []netip.Addr{addr.Addr()}, 1)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, err := r.Resolve(nameOf(g, i), dnswire.TypeA)
				if err != nil || len(res.Msg.Answer) != 1 {
					t.Errorf("%s: %v, %v", nameOf(g, i), res, err)
					return
				}
				if rr := res.Msg.Answer[0]; rr.Name != nameOf(g, i) || rr.Data != (dnswire.A{Addr: addrOf(g, i)}) {
					t.Errorf("%s answered with %s", nameOf(g, i), rr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
