package resolver

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

// testNet is a miniature Internet shaped like the paper's experiments:
//
//	.                 root, 2-day delegations
//	net.              TLD
//	cachetest.net.    the controlled test domain (§4.1)
//	sub.cachetest.net with an in-bailiwick server (§4.2)
//	uy.               ccTLD with short child TTLs (§3.2): NS 300, A 120
type testNet struct {
	clock *simnet.VirtualClock
	net   *simnet.Network

	rootAddr, netAddr, ctAddr, subAddr, subAddr2, uyAddr netip.Addr

	root, netZone, ct, sub, uy *zone.Zone
	subSrv                     *authoritative.Server
	uySrv                      *authoritative.Server
	rootSrv                    *authoritative.Server
}

func newTestNet(t *testing.T) *testNet {
	t.Helper()
	tn := &testNet{
		clock:    simnet.NewVirtualClock(),
		rootAddr: netip.MustParseAddr("198.41.0.4"),
		netAddr:  netip.MustParseAddr("192.5.6.30"),
		ctAddr:   netip.MustParseAddr("192.0.2.1"),
		subAddr:  netip.MustParseAddr("192.0.2.53"),
		subAddr2: netip.MustParseAddr("192.0.2.54"), // renumber target
		uyAddr:   netip.MustParseAddr("200.40.0.1"),
	}
	tn.net = simnet.NewNetwork(1)
	tn.net.LatencyFor = func(src, dst netip.Addr) simnet.LatencyModel {
		return simnet.Constant(10 * time.Millisecond)
	}

	tn.root = zone.New(dnswire.Root)
	tn.root.MustAdd(
		dnswire.NewSOA(".", 86400, "a.root-servers.net.", "nstld.verisign-grs.com.", 1, 1800, 900, 604800, 86400),
		dnswire.NewNS(".", 518400, "a.root-servers.net"),
		dnswire.NewA("a.root-servers.net", 518400, "198.41.0.4"),
		// net. delegation
		dnswire.NewNS("net", 172800, "a.gtld-servers.net"),
		dnswire.NewA("a.gtld-servers.net", 172800, "192.5.6.30"),
		// uy. delegation: parent says 2 days.
		dnswire.NewNS("uy", 172800, "a.nic.uy"),
		dnswire.NewA("a.nic.uy", 172800, "200.40.0.1"),
	)

	tn.netZone = zone.New(dnswire.NewName("net"))
	tn.netZone.MustAdd(
		dnswire.NewSOA("net", 900, "a.gtld-servers.net.", "nstld.verisign-grs.com.", 1, 1800, 900, 604800, 86400),
		dnswire.NewNS("net", 172800, "a.gtld-servers.net"),
		// cachetest.net delegation with 2-day parent TTLs.
		dnswire.NewNS("cachetest.net", 172800, "ns1.cachetest.net"),
		dnswire.NewA("ns1.cachetest.net", 172800, "192.0.2.1"),
	)

	tn.ct = zone.New(dnswire.NewName("cachetest.net"))
	tn.ct.MustAdd(
		dnswire.NewSOA("cachetest.net", 3600, "ns1.cachetest.net", "admin.cachetest.net", 1, 7200, 3600, 1209600, 60),
		dnswire.NewNS("cachetest.net", 3600, "ns1.cachetest.net"),
		dnswire.NewA("ns1.cachetest.net", 3600, "192.0.2.1"),
		dnswire.NewA("www.cachetest.net", 300, "192.0.2.80"),
		dnswire.NewCNAME("alias.cachetest.net", 600, "www.cachetest.net"),
		// sub delegation: NS 3600, glue A 7200 (§4.2 parameters).
		dnswire.NewNS("sub.cachetest.net", 3600, "ns3.sub.cachetest.net"),
		dnswire.NewA("ns3.sub.cachetest.net", 7200, "192.0.2.53"),
	)

	tn.sub = zone.New(dnswire.NewName("sub.cachetest.net"))
	tn.sub.MustAdd(
		dnswire.NewSOA("sub.cachetest.net", 3600, "ns3.sub.cachetest.net", "admin.cachetest.net", 1, 7200, 3600, 1209600, 60),
		dnswire.NewNS("sub.cachetest.net", 3600, "ns3.sub.cachetest.net"),
		dnswire.NewA("ns3.sub.cachetest.net", 7200, "192.0.2.53"),
		dnswire.NewAAAA("probe.sub.cachetest.net", 60, "2001:db8::1"),
	)

	tn.uy = zone.New(dnswire.NewName("uy"))
	tn.uy.MustAdd(
		dnswire.NewSOA("uy", 300, "a.nic.uy", "hostmaster.nic.uy", 1, 1800, 900, 604800, 300),
		dnswire.NewNS("uy", 300, "a.nic.uy"),        // child NS TTL: 300 s
		dnswire.NewA("a.nic.uy", 120, "200.40.0.1"), // child A TTL: 120 s
	)

	attach := func(addr netip.Addr, name string, zs ...*zone.Zone) *authoritative.Server {
		s := authoritative.NewServer(dnswire.NewName(name), tn.clock)
		for _, z := range zs {
			s.AddZone(z)
		}
		tn.net.Attach(addr, s)
		return s
	}
	tn.rootSrv = attach(tn.rootAddr, "a.root-servers.net", tn.root)
	attach(tn.netAddr, "a.gtld-servers.net", tn.netZone)
	attach(tn.ctAddr, "ns1.cachetest.net", tn.ct)
	tn.subSrv = attach(tn.subAddr, "ns3.sub.cachetest.net", tn.sub)
	tn.uySrv = attach(tn.uyAddr, "a.nic.uy", tn.uy)
	return tn
}

func (tn *testNet) resolver(pol Policy, seed int64) *Resolver {
	return New(netip.MustParseAddr("10.0.0.2"), pol, tn.net, tn.clock,
		[]netip.Addr{tn.rootAddr}, seed)
}

// renumberSub moves the sub.cachetest.net server to a new address serving
// different content, updating parent glue and child zone — the §4.2
// experiment's manipulation.
func (tn *testNet) renumberSub(t *testing.T) {
	t.Helper()
	newSub := zone.New(dnswire.NewName("sub.cachetest.net"))
	newSub.MustAdd(
		dnswire.NewSOA("sub.cachetest.net", 3600, "ns3.sub.cachetest.net", "admin.cachetest.net", 2, 7200, 3600, 1209600, 60),
		dnswire.NewNS("sub.cachetest.net", 3600, "ns3.sub.cachetest.net"),
		dnswire.NewA("ns3.sub.cachetest.net", 7200, "192.0.2.54"),
		dnswire.NewAAAA("probe.sub.cachetest.net", 60, "2001:db8::2"), // different answer
	)
	s := authoritative.NewServer(dnswire.NewName("ns3.sub.cachetest.net"), tn.clock)
	s.AddZone(newSub)
	tn.net.Attach(tn.subAddr2, s)
	tn.net.Detach(tn.subAddr)
	if err := tn.ct.Replace(dnswire.NewName("ns3.sub.cachetest.net"), dnswire.TypeA,
		dnswire.NewA("ns3.sub.cachetest.net", 7200, "192.0.2.54")); err != nil {
		t.Fatal(err)
	}
}

// RenumberWorld hands farm_test.go the testNet pieces its scenario needs: a
// farm can only be built from the external test package (farm imports this
// one), which cannot see testNet. renumber is renumberSub with the old
// server left answering at the old address, as the paper's old VM was.
func RenumberWorld(t *testing.T) (net *simnet.Network, clock *simnet.VirtualClock, root netip.Addr, renumber func()) {
	tn := newTestNet(t)
	return tn.net, tn.clock, tn.rootAddr, func() {
		tn.renumberSub(t)
		tn.net.Attach(tn.subAddr, tn.subSrv)
	}
}

func mustResolve(t *testing.T, r *Resolver, name string, qt dnswire.Type) *Result {
	t.Helper()
	res, err := r.Resolve(dnswire.NewName(name), qt)
	if err != nil {
		t.Fatalf("Resolve(%s, %s): %v", name, qt, err)
	}
	return res
}

func answerAddr(t *testing.T, res *Result) string {
	t.Helper()
	if len(res.Msg.Answer) == 0 {
		t.Fatalf("no answer: %s (rcode %s)", res.Msg, res.Msg.Header.RCode)
	}
	switch d := res.Msg.Answer[len(res.Msg.Answer)-1].Data.(type) {
	case dnswire.A:
		return d.Addr.String()
	case dnswire.AAAA:
		return d.Addr.String()
	}
	t.Fatalf("last answer is not an address: %v", res.Msg.Answer)
	return ""
}

func TestIterativeResolution(t *testing.T) {
	tn := newTestNet(t)
	r := tn.resolver(DefaultPolicy(), 1)
	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if res.CacheHit {
		t.Errorf("first resolution cannot be a cache hit")
	}
	if got := answerAddr(t, res); got != "192.0.2.80" {
		t.Errorf("answer = %s", got)
	}
	if res.AnswerTTL != 300 {
		t.Errorf("AnswerTTL = %d, want 300", res.AnswerTTL)
	}
	// root → net → cachetest: three exchanges.
	if res.Queries != 3 {
		t.Errorf("queries = %d, want 3", res.Queries)
	}
	if res.Latency != 30*time.Millisecond {
		t.Errorf("latency = %v, want 30ms", res.Latency)
	}
	if res.FinalServer != tn.ctAddr {
		t.Errorf("final server = %v", res.FinalServer)
	}
}

func TestCacheHitAndDecay(t *testing.T) {
	tn := newTestNet(t)
	r := tn.resolver(DefaultPolicy(), 1)
	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	tn.clock.Advance(100 * time.Second)
	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if !res.CacheHit {
		t.Fatalf("second resolution should hit cache")
	}
	if res.Queries != 0 || res.Latency != 0 {
		t.Errorf("cache hit cost: %d queries, %v", res.Queries, res.Latency)
	}
	if res.AnswerTTL != 200 {
		t.Errorf("decayed TTL = %d, want 200", res.AnswerTTL)
	}
	// After expiry it re-fetches, but infrastructure is still cached: one
	// query straight to the cachetest server.
	tn.clock.Advance(300 * time.Second)
	res = mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if res.CacheHit || res.Queries != 1 {
		t.Errorf("post-expiry: hit=%v queries=%d, want miss with 1 query", res.CacheHit, res.Queries)
	}
	if res.AnswerTTL != 300 {
		t.Errorf("refreshed TTL = %d", res.AnswerTTL)
	}
}

// TestCentricityNSTTL reproduces §3.2: the same NS .uy question yields the
// child's 300 s TTL from a child-centric resolver and the parent's 172800 s
// from a parent-centric one.
func TestCentricityNSTTL(t *testing.T) {
	tn := newTestNet(t)

	child := tn.resolver(DefaultPolicy(), 1)
	res := mustResolve(t, child, "uy", dnswire.TypeNS)
	if res.AnswerTTL != 300 {
		t.Errorf("child-centric NS TTL = %d, want 300", res.AnswerTTL)
	}
	if res.FinalServer != tn.uyAddr {
		t.Errorf("child-centric must ask the child: %v", res.FinalServer)
	}

	pol := DefaultPolicy()
	pol.Centricity = ParentCentric
	parent := tn.resolver(pol, 2)
	res = mustResolve(t, parent, "uy", dnswire.TypeNS)
	if res.AnswerTTL != 172800 {
		t.Errorf("parent-centric NS TTL = %d, want 172800", res.AnswerTTL)
	}
	if res.FinalServer != tn.rootAddr {
		t.Errorf("parent-centric should answer from the root's referral: %v", res.FinalServer)
	}
	// The child authoritative must never have seen the NS query.
	if tn.uySrv.QueryCount() != 1 { // one from the child-centric resolver
		t.Errorf("uy server saw %d queries, want 1", tn.uySrv.QueryCount())
	}
}

// TestCentricityGlueTTL reproduces the a.nic.uy-A experiment: child 120 s
// vs parent glue 172800 s.
func TestCentricityGlueTTL(t *testing.T) {
	tn := newTestNet(t)
	child := tn.resolver(DefaultPolicy(), 1)
	res := mustResolve(t, child, "a.nic.uy", dnswire.TypeA)
	if res.AnswerTTL != 120 {
		t.Errorf("child-centric A TTL = %d, want 120", res.AnswerTTL)
	}
	pol := DefaultPolicy()
	pol.Centricity = ParentCentric
	parent := tn.resolver(pol, 2)
	res = mustResolve(t, parent, "a.nic.uy", dnswire.TypeA)
	if res.AnswerTTL != 172800 {
		t.Errorf("parent-centric A TTL = %d, want 172800 (glue)", res.AnswerTTL)
	}
}

func TestCNAMEChase(t *testing.T) {
	tn := newTestNet(t)
	r := tn.resolver(DefaultPolicy(), 1)
	res := mustResolve(t, r, "alias.cachetest.net", dnswire.TypeA)
	if len(res.Msg.Answer) != 2 {
		t.Fatalf("answers = %v", res.Msg.Answer)
	}
	if res.Msg.Answer[0].Type != dnswire.TypeCNAME || res.Msg.Answer[1].Type != dnswire.TypeA {
		t.Errorf("chain = %v", res.Msg.Answer)
	}
	// Cached CNAME serves the next query.
	res = mustResolve(t, r, "alias.cachetest.net", dnswire.TypeA)
	if !res.CacheHit {
		t.Errorf("CNAME chain should be served from cache")
	}
}

func TestNegativeCaching(t *testing.T) {
	tn := newTestNet(t)
	r := tn.resolver(DefaultPolicy(), 1)
	res := mustResolve(t, r, "missing.cachetest.net", dnswire.TypeA)
	if res.Msg.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %s", res.Msg.Header.RCode)
	}
	res = mustResolve(t, r, "missing.cachetest.net", dnswire.TypeA)
	if !res.CacheHit || res.Msg.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("negative answer not cached: hit=%v rcode=%s", res.CacheHit, res.Msg.Header.RCode)
	}
	// NODATA likewise.
	res = mustResolve(t, r, "www.cachetest.net", dnswire.TypeMX)
	if res.Msg.Header.RCode != dnswire.RCodeNoError || len(res.Msg.Answer) != 0 {
		t.Fatalf("expected NODATA")
	}
	res = mustResolve(t, r, "www.cachetest.net", dnswire.TypeMX)
	if !res.CacheHit {
		t.Errorf("NODATA not cached")
	}
}

// TestInBailiwickRenumber reproduces §4.2: with in-bailiwick servers and
// glue-refreshing resolvers, the still-valid A record is replaced when the
// NS TTL (3600 s) expires — the switch happens at 1 h, not at the A's 2 h.
func TestInBailiwickRenumber(t *testing.T) {
	tn := newTestNet(t)
	r := tn.resolver(DefaultPolicy(), 1)
	res := mustResolve(t, r, "probe.sub.cachetest.net", dnswire.TypeAAAA)
	if got := answerAddr(t, res); got != "2001:db8::1" {
		t.Fatalf("initial answer = %s", got)
	}
	tn.renumberSub(t)

	// Before NS expiry: cached NS+glue still point at the old server, but
	// it is detached → the probe's 60 s TTL expires each round and the
	// re-query to the old address times out... the old server is gone
	// entirely, so emulate the paper by keeping the old server running
	// with the old content instead.
	tn.net.Attach(tn.subAddr, tn.subSrv)

	tn.clock.Advance(30 * time.Minute)
	res = mustResolve(t, r, "probe.sub.cachetest.net", dnswire.TypeAAAA)
	if got := answerAddr(t, res); got != "2001:db8::1" {
		t.Errorf("t=30min: answer = %s, want old server's (NS still cached)", got)
	}

	// After NS expiry (>60 min): referral re-fetched, new glue replaces
	// the still-valid old A, resolver switches.
	tn.clock.Advance(31 * time.Minute)
	res = mustResolve(t, r, "probe.sub.cachetest.net", dnswire.TypeAAAA)
	if got := answerAddr(t, res); got != "2001:db8::2" {
		t.Errorf("t=61min: answer = %s, want new server's (glue refresh)", got)
	}
}

// TestInBailiwickDecoupled: the minority behavior — a resolver that keeps a
// fresh cached address ignores the new glue until the A's own TTL expires.
func TestInBailiwickDecoupled(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.RefreshGlueOnReferral = false
	r := tn.resolver(pol, 1)
	mustResolve(t, r, "probe.sub.cachetest.net", dnswire.TypeAAAA)
	tn.renumberSub(t)
	tn.net.Attach(tn.subAddr, tn.subSrv)

	tn.clock.Advance(61 * time.Minute) // NS expired, A (7200 s) still fresh
	res := mustResolve(t, r, "probe.sub.cachetest.net", dnswire.TypeAAAA)
	if got := answerAddr(t, res); got != "2001:db8::1" {
		t.Errorf("t=61min decoupled: answer = %s, want old", got)
	}
	tn.clock.Advance(62 * time.Minute) // past 2 h: A expired too
	res = mustResolve(t, r, "probe.sub.cachetest.net", dnswire.TypeAAAA)
	if got := answerAddr(t, res); got != "2001:db8::2" {
		t.Errorf("t=123min decoupled: answer = %s, want new", got)
	}
}

func TestStickyResolver(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.Sticky = true
	r := tn.resolver(pol, 1)
	mustResolve(t, r, "probe.sub.cachetest.net", dnswire.TypeAAAA)
	tn.renumberSub(t)
	tn.net.Attach(tn.subAddr, tn.subSrv)

	// Far past every TTL, a sticky resolver still asks the old server.
	tn.clock.Advance(5 * time.Hour)
	res := mustResolve(t, r, "probe.sub.cachetest.net", dnswire.TypeAAAA)
	if got := answerAddr(t, res); got != "2001:db8::1" {
		t.Errorf("sticky resolver switched: %s", got)
	}
}

func TestServeStale(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.ServeStale = true
	r := tn.resolver(pol, 1)
	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)

	// All servers down, answer expired: stale answer instead of SERVFAIL.
	for _, a := range []netip.Addr{tn.rootAddr, tn.netAddr, tn.ctAddr} {
		if err := tn.net.SetDown(a, true); err != nil {
			t.Fatal(err)
		}
	}
	tn.clock.Advance(10 * time.Minute)
	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if !res.Stale {
		t.Fatalf("expected stale answer, got %s (rcode %s)", res.Msg, res.Msg.Header.RCode)
	}
	if res.AnswerTTL != 30 {
		t.Errorf("stale TTL = %d, want 30", res.AnswerTTL)
	}

	// Without serve-stale: SERVFAIL.
	r2 := tn.resolver(DefaultPolicy(), 2)
	res2, _ := r2.Resolve(dnswire.NewName("www.cachetest.net"), dnswire.TypeA)
	if res2.Msg.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %s, want SERVFAIL", res2.Msg.Header.RCode)
	}
}

// TestServeStaleKeepsCredibilityAndCap: the serve-stale path sees fresh
// entries too, among them the parent's glue for ns1.cachetest.net (172800
// s). A child-centric resolver must not answer from that glue once the
// child is down — and nothing it shows may exceed its serve-time cap.
func TestServeStaleKeepsCredibilityAndCap(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.ServeStale, pol.TTLCap, pol.CapAtServe = true, 21599, true
	r := tn.resolver(pol, 1)
	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if err := tn.net.SetDown(tn.ctAddr, true); err != nil {
		t.Fatal(err)
	}
	res, _ := r.Resolve(dnswire.NewName("ns1.cachetest.net"), dnswire.TypeA)
	if res.Msg.Header.RCode != dnswire.RCodeServFail || res.Stale {
		t.Errorf("rcode %s, stale %v, TTL %d: want SERVFAIL, not the parent's glue", res.Msg.Header.RCode, res.Stale, res.AnswerTTL)
	}

	// A stale answer the resolver may give shows at most the cap.
	tn.clock.Advance(10 * time.Minute)
	for _, a := range []netip.Addr{tn.rootAddr, tn.netAddr} {
		if err := tn.net.SetDown(a, true); err != nil {
			t.Fatal(err)
		}
	}
	pol.TTLCap = 10
	r.Policy = pol
	res = mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if !res.Stale || res.AnswerTTL != 10 {
		t.Errorf("stale %v, TTL %d: want a stale answer capped at 10", res.Stale, res.AnswerTTL)
	}
}

func TestLocalRoot(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.LocalRoot = true
	r := tn.resolver(pol, 1)
	r.LocalRootZone = tn.root

	// Root servers unreachable: RFC 7706 resolvers don't care.
	if err := tn.net.SetDown(tn.rootAddr, true); err != nil {
		t.Fatal(err)
	}
	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if got := answerAddr(t, res); got != "192.0.2.80" {
		t.Errorf("answer = %s", got)
	}
	// Only net + cachetest queried; the root referral was local.
	if res.Queries != 2 {
		t.Errorf("queries = %d, want 2", res.Queries)
	}
	if tn.rootSrv.QueryCount() != 0 {
		t.Errorf("root server saw %d queries", tn.rootSrv.QueryCount())
	}
}

// TestLocalRootAnswerCapped: an answer taken from the RFC 7706 mirror is
// stored data like any other, so it shows at most the cap — the TTL a
// resolver that asks a root server shows.
func TestLocalRootAnswerCapped(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.TTLCap = 21599
	upstream := mustResolve(t, tn.resolver(pol, 1), ".", dnswire.TypeNS)
	pol.LocalRoot = true
	r := tn.resolver(pol, 2)
	r.LocalRootZone = tn.root
	asked := tn.rootSrv.QueryCount()
	mirror := mustResolve(t, r, ".", dnswire.TypeNS)
	if len(mirror.Msg.Answer) == 0 || tn.rootSrv.QueryCount() != asked {
		t.Fatalf("mirror answered %d records after %d root queries; want an answer from the mirror alone",
			len(mirror.Msg.Answer), tn.rootSrv.QueryCount()-asked)
	}
	if mirror.AnswerTTL > pol.TTLCap || mirror.AnswerTTL != upstream.AnswerTTL {
		t.Errorf(". NS from the mirror shows %d s, from upstream %d s; want both at most the cap %d",
			mirror.AnswerTTL, upstream.AnswerTTL, pol.TTLCap)
	}
}

// mirrorResolver is a resolver reading tn's root from its RFC 7706 mirror,
// with the root server down so that any root query would show.
func mirrorResolver(t *testing.T, tn *testNet, pol Policy) *Resolver {
	t.Helper()
	pol.LocalRoot = true
	r := tn.resolver(pol, 1)
	r.LocalRootZone = tn.root
	if err := tn.net.SetDown(tn.rootAddr, true); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLocalRootNXDomainCached: a mirror NXDOMAIN is negatively cached, so
// asking again is a cache hit rather than another walk of the mirror.
func TestLocalRootNXDomainCached(t *testing.T) {
	tn := newTestNet(t)
	r := mirrorResolver(t, tn, DefaultPolicy())
	for i, wantHit := range []bool{false, true} {
		res, _ := r.Resolve(dnswire.NewName("no-such-tld-zz"), dnswire.TypeA)
		if res.Msg.Header.RCode != dnswire.RCodeNXDomain || res.CacheHit != wantHit {
			t.Errorf("query %d: rcode %s, cache hit %v; want NXDOMAIN, hit %v",
				i+1, res.Msg.Header.RCode, res.CacheHit, wantHit)
		}
	}
}

// TestLocalRootAnswerDecays: a mirror answer is stored, so the TTL it shows
// decays with the clock like any cached answer's.
func TestLocalRootAnswerDecays(t *testing.T) {
	tn := newTestNet(t)
	r := mirrorResolver(t, tn, DefaultPolicy())
	first := mustResolve(t, r, ".", dnswire.TypeNS)
	tn.clock.Advance(100 * time.Second)
	again := mustResolve(t, r, ".", dnswire.TypeNS)
	if first.AnswerTTL == 0 || again.AnswerTTL != first.AnswerTTL-100 {
		t.Errorf(". NS from the mirror shows %d s, then %d s 100 s later; want %d",
			first.AnswerTTL, again.AnswerTTL, first.AnswerTTL-100)
	}
}

// TestLocalRootNotValidated: mirror data is parent data, so a validating
// resolver fetches no keys for it, and with the root down it still answers
// . NS with no upstream query.
func TestLocalRootNotValidated(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.Validate = true
	res := mustResolve(t, mirrorResolver(t, tn, pol), ".", dnswire.TypeNS)
	if len(res.Msg.Answer) == 0 || res.Queries != 0 {
		t.Errorf(". NS from the mirror: %d records after %d upstream queries; want an answer and 0",
			len(res.Msg.Answer), res.Queries)
	}
}

// TestEveryShownTTLIsStored: every answer record a resolver shows is held in
// its cache with at least the TTL shown left, and every negative answer has
// a negative entry — whether the answer came off the wire, from the cache,
// through a CNAME, under a serve-time cap or from the RFC 7706 mirror.
func TestEveryShownTTLIsStored(t *testing.T) {
	capAtServe := DefaultPolicy()
	capAtServe.TTLCap = 100
	capAtServe.CapAtServe = true
	cases := []struct {
		name   string
		pol    Policy
		mirror bool
		qname  string
		qtype  dnswire.Type
		warm   bool // ask once and let 50 s pass first
	}{
		{"wire answer", DefaultPolicy(), false, "www.cachetest.net", dnswire.TypeA, false},
		{"cache hit", DefaultPolicy(), false, "www.cachetest.net", dnswire.TypeA, true},
		{"cname chain", DefaultPolicy(), false, "alias.cachetest.net", dnswire.TypeA, false},
		{"cap at serve", capAtServe, false, "www.cachetest.net", dnswire.TypeA, false},
		{"mirror answer", DefaultPolicy(), true, ".", dnswire.TypeNS, false},
		{"mirror nxdomain", DefaultPolicy(), true, "no-such-tld-zz", dnswire.TypeA, false},
		{"mirror nodata", DefaultPolicy(), true, ".", dnswire.TypeMX, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tn := newTestNet(t)
			var r *Resolver
			if c.mirror {
				r = mirrorResolver(t, tn, c.pol)
			} else {
				r = tn.resolver(c.pol, 1)
			}
			name := dnswire.NewName(c.qname)
			if c.warm {
				mustResolve(t, r, c.qname, c.qtype)
				tn.clock.Advance(50 * time.Second)
			}
			res, _ := r.Resolve(name, c.qtype)
			if res.CacheHit != c.warm {
				t.Fatalf("cache hit %v, want %v", res.CacheHit, c.warm)
			}
			if len(res.Msg.Answer) == 0 {
				e, _, ok := r.Cache.Get(name, c.qtype)
				if !ok || e.Negative == cache.NotNegative {
					t.Errorf("%s answer (rcode %s) has no negative cache entry", c.qtype, res.Msg.Header.RCode)
				}
				return
			}
			for _, rr := range res.Msg.Answer {
				if _, rem, ok := r.Cache.Get(rr.Name, rr.Type); !ok || rem < rr.TTL {
					t.Errorf("%s %s shown with %d s; cache holds it: %v, %d s left", rr.Name, rr.Type, rr.TTL, ok, rem)
				}
			}
		})
	}
}

func TestTTLCap(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.TTLCap = 21599 // the Google-like cap of §3.3
	r := tn.resolver(pol, 1)
	res := mustResolve(t, r, "uy", dnswire.TypeNS)
	if res.AnswerTTL != 300 {
		t.Fatalf("uncapped child value: %d", res.AnswerTTL)
	}
	// Parent-centric + cap: 172800 → 21599.
	pol.Centricity = ParentCentric
	r2 := tn.resolver(pol, 2)
	res = mustResolve(t, r2, "uy", dnswire.TypeNS)
	if res.AnswerTTL != 21599 {
		t.Errorf("capped TTL = %d, want 21599", res.AnswerTTL)
	}
}

func TestPrefetch(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.PrefetchFraction = 0.2 // the last 60 s of the record's 300
	r := tn.resolver(pol, 1)
	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)

	// 250 s in: remaining 50 is inside the window → hit served, then refreshed.
	tn.clock.Advance(250 * time.Second)
	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if !res.CacheHit || res.AnswerTTL != 50 {
		t.Fatalf("prefetch hit: hit=%v ttl=%d", res.CacheHit, res.AnswerTTL)
	}
	// The refresh restored a full TTL: the next query 100 s later would
	// have missed without prefetch, but hits with ~200 s left.
	tn.clock.Advance(100 * time.Second)
	res = mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if !res.CacheHit {
		t.Errorf("prefetch did not refresh the entry")
	}
	if res.AnswerTTL != 200 {
		t.Errorf("post-prefetch TTL = %d, want 200", res.AnswerTTL)
	}
}

func TestSERVFAILWhenAllDown(t *testing.T) {
	tn := newTestNet(t)
	r := tn.resolver(DefaultPolicy(), 1)
	if err := tn.net.SetDown(tn.rootAddr, true); err != nil {
		t.Fatal(err)
	}
	res, _ := r.Resolve(dnswire.NewName("www.cachetest.net"), dnswire.TypeA)
	if res.Msg.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %s", res.Msg.Header.RCode)
	}
	if res.Timeouts == 0 {
		t.Errorf("timeouts not accounted")
	}
}

func TestSharedCache(t *testing.T) {
	tn := newTestNet(t)
	shared := cache.New(tn.clock, cache.Config{})
	r1 := tn.resolver(DefaultPolicy(), 1)
	r1.Cache = shared
	r2 := tn.resolver(DefaultPolicy(), 2)
	r2.Cache = shared
	mustResolve(t, r1, "www.cachetest.net", dnswire.TypeA)
	res := mustResolve(t, r2, "www.cachetest.net", dnswire.TypeA)
	if !res.CacheHit {
		t.Errorf("shared cache: second resolver should hit")
	}
}

// TestCoalesceOnlyOnMiss: the Coalesce hook is entered for a top-level
// cache miss and never for a hit, so a warm name takes no shared lock and
// is never answered as a follower; a joined caller gets the leader's
// Result as a Follower copy.
func TestCoalesceOnlyOnMiss(t *testing.T) {
	tn := newTestNet(t)
	r := tn.resolver(DefaultPolicy(), 1)
	var entered []cache.Key
	r.Coalesce = func(k cache.Key, lead func() (*Result, error)) (*Result, error, bool) {
		entered = append(entered, k)
		res, err := lead()
		return res, err, false
	}
	www := cache.Key{Name: dnswire.NewName("www.cachetest.net"), Type: dnswire.TypeA}
	cold := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if cold.CacheHit || cold.Coalesced || cold.Queries == 0 || cold.AnswerTTL != 300 {
		t.Errorf("leader: hit=%v coalesced=%v queries=%d ttl=%d", cold.CacheHit, cold.Coalesced, cold.Queries, cold.AnswerTTL)
	}
	warm := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if !warm.CacheHit || warm.Coalesced {
		t.Errorf("warm: hit=%v coalesced=%v, want a plain hit", warm.CacheHit, warm.Coalesced)
	}
	if len(entered) != 1 || entered[0] != www {
		t.Errorf("Coalesce entered for %v, want once, for the cold lookup only", entered)
	}

	// A caller told it joined answers with the leader's Result, not its own.
	r.Coalesce = func(cache.Key, func() (*Result, error)) (*Result, error, bool) { return cold, nil, true }
	tn.clock.Advance(400 * time.Second)
	got := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if !got.Coalesced || got.CacheHit || got.Queries != 0 || got.Msg != cold.Msg {
		t.Errorf("follower: coalesced=%v hit=%v queries=%d sameMsg=%v", got.Coalesced, got.CacheHit, got.Queries, got.Msg == cold.Msg)
	}
}

func TestAnswersHaveRAFlag(t *testing.T) {
	tn := newTestNet(t)
	r := tn.resolver(DefaultPolicy(), 1)
	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if !res.Msg.Header.RA || !res.Msg.Header.QR {
		t.Errorf("client response header: %+v", res.Msg.Header)
	}
}

// denyGate is a scripted StaleGate: it vetoes exactly the keys in deny and
// counts every veto.
type denyGate struct {
	deny   map[cache.Key]bool
	denied int
}

func (g *denyGate) AllowStale(name dnswire.Name, qtype dnswire.Type, storedAt time.Time) bool {
	if g.deny[cache.Key{Name: name, Type: qtype}] {
		g.denied++
		return false
	}
	return true
}

// TestServeStaleGate is the push-plane regression: a name the gate vetoes
// (purged by NOTIFY, or covered by an unhealthy subscription) must never be
// served stale — the resolver fails instead of answering known-superseded
// data. Ungated names keep the RFC 8767 behavior.
func TestServeStaleGate(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.ServeStale = true
	r := tn.resolver(pol, 1)
	www := dnswire.NewName("www.cachetest.net")
	gate := &denyGate{deny: map[cache.Key]bool{{Name: www, Type: dnswire.TypeA}: true}}
	r.SetStaleGate(gate)

	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	mustResolve(t, r, "alias.cachetest.net", dnswire.TypeA)
	for _, a := range []netip.Addr{tn.rootAddr, tn.netAddr, tn.ctAddr} {
		if err := tn.net.SetDown(a, true); err != nil {
			t.Fatal(err)
		}
	}
	tn.clock.Advance(15 * time.Minute)

	// Vetoed name: SERVFAIL, not a stale answer.
	res, _ := r.Resolve(www, dnswire.TypeA)
	if res.Stale || res.Msg.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("gated name served stale: stale=%v rcode=%s", res.Stale, res.Msg.Header.RCode)
	}
	if gate.denied == 0 {
		t.Fatal("gate was never consulted")
	}

	// The gate stops vetoing (re-subscribe succeeded, purge superseded):
	// stale serving resumes.
	gate.deny = nil
	res, err := r.Resolve(www, dnswire.TypeA)
	if err != nil || !res.Stale {
		t.Fatalf("ungated name not served stale: stale=%v err=%v", res.Stale, err)
	}
}

// TestYieldOncePerResolution pins where the yield its context carries
// (WithYield) runs: once per resolution that may wait, at the first such
// point, never on a warm hit, and never for another resolution.
func TestYieldOncePerResolution(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.PrefetchFraction = 0.2 // the last 60 s of www's 300
	r := tn.resolver(pol, 1)
	calls := 0
	ctx := WithYield(context.Background(), func() { calls++ })
	resolve := func(ctx context.Context, name string) *Result {
		t.Helper()
		res, err := r.ResolveInto(ctx, nil, dnswire.NewName(name), dnswire.TypeA)
		if err != nil {
			t.Fatalf("ResolveInto(%s): %v", name, err)
		}
		return res
	}
	step := func(what, name string, want int) *Result {
		t.Helper()
		calls = 0
		res := resolve(ctx, name)
		if calls != want {
			t.Errorf("%s: %d yields, want %d", what, calls, want)
		}
		return res
	}

	if res := step("cold resolution from the root", "www.cachetest.net", 1); res.Queries < 2 {
		t.Fatalf("cold resolution took %d exchanges, want a walk from the root", res.Queries)
	}
	step("warm hit", "www.cachetest.net", 0)
	if res := step("leaf miss", "alias.cachetest.net", 1); res.Queries != 1 {
		t.Fatalf("leaf miss took %d exchanges, want 1", res.Queries)
	}

	// 250 s in, www is inside the prefetch window: the hit refreshes it.
	tn.clock.Advance(250 * time.Second)
	step("hit that triggers a refresh", "www.cachetest.net", 1)
	step("hit on the refreshed entry", "www.cachetest.net", 0)

	// 560 s in, alias's CNAME (600 s) is still cached, but www, refreshed
	// at 250 s for 300 s, is not: the hit on the alias chases a miss.
	tn.clock.Advance(310 * time.Second)
	if res := step("cached alias, expired target", "alias.cachetest.net", 1); !res.CacheHit || res.Queries != 1 {
		t.Fatalf("alias chase: hit=%v, %d exchanges; want a hit that asks once", res.CacheHit, res.Queries)
	}

	// A miss whose context carries no yield calls nothing.
	calls = 0
	if res := resolve(context.Background(), "none.cachetest.net"); res.Queries == 0 || calls != 0 {
		t.Errorf("miss without a yield: %d exchanges, %d yields; want a miss and 0", res.Queries, calls)
	}

	// Two misses, each with its own yield, each call only their own.
	var a, b int
	ctxA := WithYield(context.Background(), func() { a++ })
	ctxB := WithYield(context.Background(), func() { b++ })
	resolve(ctxA, "a.cachetest.net")
	if a != 1 || b != 0 {
		t.Errorf("after the miss under A: A %d, B %d yields; want 1, 0", a, b)
	}
	resolve(ctxB, "b.cachetest.net")
	if a != 1 || b != 1 {
		t.Errorf("after the miss under B: A %d, B %d yields; want 1, 1", a, b)
	}

	// A follower yields before it waits on the leader's flight.
	r.Coalesce = func(cache.Key, func() (*Result, error)) (*Result, error, bool) {
		return &Result{Msg: &dnswire.Message{}}, nil, true
	}
	step("coalesced follower", "nope.cachetest.net", 1)
}
