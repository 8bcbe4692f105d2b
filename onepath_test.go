package dnsttl

import (
	"bytes"
	"context"
	"net/netip"
	"os"
	"reflect"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/middleware"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
)

const onePathOrgZoneText = orgZoneText + `
alias 120 IN CNAME hop.example.org.
hop   120 IN CNAME www.example.org.
`

// onePathWorld is a virtual-clock network with one authoritative server for
// the root and example.org (www, plus a two-link CNAME chain onto it).
func onePathWorld(t *testing.T) (*simnet.Network, *VirtualClock, netip.Addr) {
	net, clock, addr, _ := onePathWorldOrg(t)
	return net, clock, addr
}

// onePathWorldOrg is onePathWorld for a test that edits example.org while
// resolvers hold its records.
func onePathWorldOrg(t *testing.T) (*simnet.Network, *VirtualClock, netip.Addr, *Zone) {
	t.Helper()
	clock := NewVirtualClock()
	net := simnet.NewNetwork(1)
	srv := NewServer(NewName("a.root-servers.net"), clock)
	zones := map[string]*Zone{}
	for origin, text := range map[string]string{".": rootZoneText, "example.org": onePathOrgZoneText} {
		z, err := ParseZone(text, NewName(origin))
		if err != nil {
			t.Fatal(err)
		}
		srv.AddZone(z)
		zones[origin] = z
	}
	addr := netip.MustParseAddr("127.0.0.1")
	net.Attach(addr, srv.s)
	return net, clock, addr, zones["example.org"]
}

// TestLoneClientMatchesBareResolver holds the farm of one to the reference
// the deleted single-resolver mode was: a bare resolver.New behind
// middleware.Default, built here without the facade. Over one scripted
// schedule — misses, hits, NXDOMAIN, a CNAME chain, then an outage with
// serve-stale — a Client with Frontends 0 and with Frontends 1 must return
// the same wire bytes and the same Trace as the reference, query by query.
func TestLoneClientMatchesBareResolver(t *testing.T) {
	type step struct {
		name    string
		advance time.Duration
		down    bool
	}
	schedule := []step{
		{name: "www.example.org"},                                        // cold miss: root referral, then answer
		{name: "www.example.org"},                                        // hit
		{name: "nope.example.org"},                                       // NXDOMAIN
		{name: "nope.example.org"},                                       // negative hit
		{name: "alias.example.org"},                                      // CNAME chain onto the cached www
		{name: "alias.example.org", advance: time.Minute},                // hit, TTLs decayed
		{name: "www.example.org", advance: 10 * time.Minute, down: true}, // expired + timeout ⇒ stale
		{name: "fresh.example.org", down: true},                          // nothing to serve ⇒ SERVFAIL
	}
	pol := DefaultPolicy()
	pol.ServeStale = true

	type outcome struct {
		wire  []byte
		trace resolver.Trace
		err   string
	}
	type lookupFunc = func(Name, Type) (*Result, error)
	replay := func(t *testing.T, build func(*simnet.Network, *VirtualClock, netip.Addr) lookupFunc) []outcome {
		net, clock, addr := onePathWorld(t)
		lookup := build(net, clock, addr)
		var out []outcome
		for _, s := range schedule {
			clock.Advance(s.advance)
			if err := net.SetDown(addr, s.down); err != nil {
				t.Fatal(err)
			}
			var o outcome
			res, err := lookup(NewName(s.name), TypeA)
			if err != nil {
				o.err = err.Error()
			}
			if res != nil {
				o.wire, o.trace = mustEncode(t, res.Msg), res.Trace
				o.trace.Span = nil
			}
			out = append(out, o)
		}
		return out
	}

	want := replay(t, func(net *simnet.Network, clock *VirtualClock, addr netip.Addr) lookupFunc {
		r := resolver.New(addr, pol, net, clock, []netip.Addr{addr}, 1)
		p := middleware.Default(middleware.Env{Lookup: r.Resolve, Clock: clock})
		return func(name Name, qtype Type) (*Result, error) {
			resp, err := p.Resolve(context.Background(), &middleware.Query{Name: name, Type: qtype})
			return resp.Result, err
		}
	})
	if !want[1].trace.CacheHit || !want[5].trace.CacheHit || !want[6].trace.Stale ||
		want[7].trace.Stale || want[7].trace.Timeouts != 1 {
		t.Fatalf("schedule lost its shape: %+v", want)
	}
	for _, frontends := range []int{0, 1} {
		got := replay(t, func(net *simnet.Network, clock *VirtualClock, addr netip.Addr) lookupFunc {
			c, err := NewClient(ClientConfig{Policy: pol, Roots: []netip.Addr{addr}, Net: net, Clock: clock, Frontends: frontends})
			if err != nil {
				t.Fatal(err)
			}
			return c.Lookup
		})
		for i := range want {
			if !bytes.Equal(got[i].wire, want[i].wire) || got[i].err != want[i].err {
				t.Errorf("Frontends %d, step %d (%s): wire %x err %q, reference %x err %q",
					frontends, i, schedule[i].name, got[i].wire, got[i].err, want[i].wire, want[i].err)
			}
			if !reflect.DeepEqual(got[i].trace, want[i].trace) {
				t.Errorf("Frontends %d, step %d (%s): trace %+v, reference %+v",
					frontends, i, schedule[i].name, got[i].trace, want[i].trace)
			}
		}
	}
}

// workedPipelines is the walk the two tests below share: the default
// pipeline, then every worked configuration in docs/middleware.md.
func workedPipelines(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("docs/middleware.md")
	if err != nil {
		t.Fatal(err)
	}
	_, worked, _ := bytes.Cut(doc, []byte("## Worked configurations"))
	worked, _, _ = bytes.Cut(worked, []byte("\n## "))
	specs := []string{""}
	for _, m := range regexp.MustCompile("(?s)```toml\n(.*?)```").FindAllSubmatch(worked, -1) {
		specs = append(specs, string(m[1]))
	}
	if len(specs) < 4 {
		t.Fatalf("found %d worked configurations in docs/middleware.md, want at least 3", len(specs)-1)
	}
	return specs
}

// TestClientResultsCarryAnswersOnly pins what lets a rewriting stage treat a
// response as its answer section (copyMsg gives ttlmod a fresh Answer slice
// and nothing else): the resolver copies only answers into a client Result
// (applyCached and absorb add nothing else; the refused and static builders
// make answer-only messages). Held for the default pipeline and every worked
// configuration in docs/middleware.md, over a miss, a hit, a CNAME chain,
// NXDOMAIN, NODATA, their negative hits, and the names those configurations
// block or answer statically.
func TestClientResultsCarryAnswersOnly(t *testing.T) {
	questions := []struct {
		name  string
		qtype Type
	}{
		{"www.example.org", TypeA}, {"www.example.org", TypeA}, // miss, hit
		{"alias.example.org", TypeA}, {"alias.example.org", TypeA}, // CNAME chain
		{"nope.example.org", TypeA}, {"nope.example.org", TypeA}, // NXDOMAIN
		{"www.example.org", TypeTXT}, {"www.example.org", TypeTXT}, // NODATA
		{"ads.example.test", TypeA}, {"intranet.corp.example", TypeA}, // blocked, static
	}
	for i, spec := range workedPipelines(t) {
		net, clock, addr := onePathWorld(t)
		c, err := NewClient(ClientConfig{Roots: []netip.Addr{addr}, Net: net, Clock: clock, Pipeline: spec})
		if err != nil {
			t.Fatalf("configuration %d: %v", i, err)
		}
		for _, q := range questions {
			res, err := c.Lookup(NewName(q.name), q.qtype)
			if err != nil {
				t.Fatalf("configuration %d, %s %s: %v", i, q.name, q.qtype, err)
			}
			if len(res.Msg.Authority) != 0 || len(res.Msg.Additional) != 0 {
				t.Errorf("configuration %d (stages %v), %s %s: authority %v, additional %v; want neither section",
					i, c.PipelineStages(), q.name, q.qtype, res.Msg.Authority, res.Msg.Additional)
			}
			clock.Advance(time.Second)
		}
	}
}

// TestNoPipelineOutlivesTheResolver: the resolver's record cache is the only
// place an answer is kept, so whatever policy a pipeline adds, a change at
// the authoritative shows once the stored lifetime is over — and never later.
// Over the same walk as above:
//
//	(i)   a name that did not exist is created: NXDOMAIN for the zone's
//	      negative TTL (300 s, the SOA minimum), then the new record;
//	(ii)  www's RDATA is replaced: the old address for what is left of its
//	      300 s, then the new one;
//	(iii) the TTL shown never exceeds what is left of the stored lifetime.
func TestNoPipelineOutlivesTheResolver(t *testing.T) {
	const created, replaced, was, fresh = "192.0.2.81", "192.0.2.99", "192.0.2.80", "new.example.org"
	steps := []struct {
		edit    bool // the zone changes first: fresh is created, www renumbered
		advance time.Duration
		name    string
		rcode   dnswire.RCode
		addr    string // the A record expected; "" for none
		left    uint32 // of that record's stored lifetime, seconds
	}{
		{false, 0, fresh, dnswire.RCodeNXDomain, "", 0},
		{false, 0, "www.example.org", dnswire.RCodeNoError, was, 300},
		{true, 298 * time.Second, fresh, dnswire.RCodeNXDomain, "", 0},
		{false, 0, "www.example.org", dnswire.RCodeNoError, was, 2},
		{false, 3 * time.Second, fresh, dnswire.RCodeNoError, created, 300},
		{false, 0, "www.example.org", dnswire.RCodeNoError, replaced, 300},
		{false, 100 * time.Second, "www.example.org", dnswire.RCodeNoError, replaced, 200},
	}
	for i, spec := range workedPipelines(t) {
		net, clock, addr, org := onePathWorldOrg(t)
		c, err := NewClient(ClientConfig{Roots: []netip.Addr{addr}, Net: net, Clock: clock, Pipeline: spec})
		if err != nil {
			t.Fatalf("configuration %d: %v", i, err)
		}
		for j, s := range steps {
			if s.edit {
				org.MustAdd(dnswire.NewA(fresh, 300, created))
				if err := org.Replace(NewName("www.example.org"), TypeA, dnswire.NewA("www.example.org", 300, replaced)); err != nil {
					t.Fatal(err)
				}
			}
			clock.Advance(s.advance)
			res, err := c.Lookup(NewName(s.name), TypeA)
			if err != nil {
				t.Fatalf("configuration %d, step %d (%s): %v", i, j, s.name, err)
			}
			got, ttl := "", uint32(0)
			if len(res.Msg.Answer) == 1 {
				got, ttl = res.Msg.Answer[0].Data.(dnswire.A).Addr.String(), res.Msg.Answer[0].TTL
			}
			if res.Msg.Header.RCode != s.rcode || got != s.addr {
				t.Errorf("configuration %d (stages %v), step %d: %s is %v %q, want %v %q: the stored answer while it lives, the authoritative's once it is over",
					i, c.PipelineStages(), j, s.name, res.Msg.Header.RCode, got, s.rcode, s.addr)
			}
			if ttl > s.left {
				t.Errorf("configuration %d (stages %v), step %d: %s shown with TTL %d, %d s of its stored lifetime left",
					i, c.PipelineStages(), j, s.name, ttl, s.left)
			}
		}
	}
}

// gatedNet holds every exchange until release is closed, counting them.
type gatedNet struct {
	upstreamNet
	exchanges atomic.Int64
	release   chan struct{}
}

func (n *gatedNet) Exchange(src, dst netip.Addr, query []byte) ([]byte, time.Duration, error) {
	n.exchanges.Add(1)
	<-n.release
	return n.upstreamNet.Exchange(src, dst, query)
}

// TestLoneClientCoalesces: ClientConfig.Coalesce on a one-frontend client —
// which the single-resolver mode ignored — makes N concurrent cold lookups
// cost the one upstream iteration of their leader. Only misses coalesce:
// once the name is warm, concurrent lookups are all plain cache hits.
func TestLoneClientCoalesces(t *testing.T) {
	const clients = 8
	reg := NewRegistry(nil)
	net := &gatedNet{upstreamNet: upstreamNet{srv: serveFixture(t, 0)}, release: make(chan struct{})}
	c, err := NewClient(ClientConfig{
		Roots:    []netip.Addr{netip.MustParseAddr("127.0.0.1")},
		Net:      net,
		Coalesce: true,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, clients)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Lookup(NewName("www.example.org"), TypeA)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
			results[i] = res
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counters["farm.fe0.coalesced"] < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers joined", reg.Snapshot().Counters["farm.fe0.coalesced"], clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(net.release)
	wg.Wait()

	leaders, upstream := 0, 0
	for i, res := range results {
		if res == nil || len(res.Msg.Answer) != 1 {
			t.Fatalf("client %d: %+v", i, res)
		}
		if !res.Coalesced {
			leaders++
		}
		upstream += res.Queries
	}
	if leaders != 1 || int64(upstream) != net.exchanges.Load() {
		t.Errorf("%d leaders charged %d upstream queries; the network saw %d exchanges, want one leader owning all of them",
			leaders, upstream, net.exchanges.Load())
	}
	if _, ok := c.FarmStats(); ok {
		t.Errorf("a one-frontend client reports FarmStats ok=true")
	}

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				res, err := c.Lookup(NewName("www.example.org"), TypeA)
				if err != nil || !res.CacheHit || res.Coalesced {
					t.Errorf("warm lookup: %+v, %v; want a plain cache hit", res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Snapshot().Counters["farm.fe0.coalesced"]; got != clients-1 {
		t.Errorf("farm.fe0.coalesced = %d after warm lookups, want %d (hits never join a flight)", got, clients-1)
	}
}

// TestEnablePushWhileServingStale pins the stale gate's installation
// against the reads of running listeners: lookups keep failing upstream and
// falling back to serve-stale — each consulting the gate — while EnablePush
// installs the subscriber as that gate. Under -race a plain write of the
// gate fails here.
func TestEnablePushWhileServingStale(t *testing.T) {
	net, clock, addr := onePathWorld(t)
	pol := DefaultPolicy()
	pol.ServeStale = true
	for _, frontends := range []int{1, 3} {
		c, err := NewClient(ClientConfig{Policy: pol, Roots: []netip.Addr{addr}, Net: net, Clock: clock, Frontends: frontends})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SetDown(addr, false); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4*frontends; i++ { // warm every frontend's cache
			if _, err := c.Lookup(NewName("www.example.org"), TypeA); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance(10 * time.Minute)
		if err := net.SetDown(addr, true); err != nil {
			t.Fatal(err)
		}

		rs := &RecursiveServer{Client: c}
		stop := make(chan struct{})
		var served atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if res, err := c.Lookup(NewName("www.example.org"), TypeA); err == nil && res.Stale {
						served.Add(1)
					}
				}
			}()
		}
		// Stale answers flow before the gate exists and keep flowing after:
		// it allows names outside any subscription.
		waitPast := func(n int64) {
			t.Helper()
			for deadline := time.Now().Add(10 * time.Second); served.Load() <= n; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					close(stop)
					wg.Wait()
					t.Fatalf("%d frontend(s): stale answers stopped at %d", frontends, n)
				}
			}
		}
		waitPast(0)
		rs.EnablePush(PushConfig{Net: net})
		waitPast(served.Load())
		close(stop)
		wg.Wait()
	}
}
