package resolver

import (
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

func TestCentricityString(t *testing.T) {
	if ChildCentric.String() != "child-centric" || ParentCentric.String() != "parent-centric" {
		t.Errorf("centricity strings wrong")
	}
}

// TestPolicyDefaults: the zero policy never refreshes ahead, not even on a
// record's last second, and the fraction alone turns it on — 0.4 of a 300 s
// record is the 120 s window AblationPrefetch probes inside.
func TestPolicyDefaults(t *testing.T) {
	p := Policy{}
	if p.prefetchTriggered(0, 300) {
		t.Errorf("zero policy triggered a refresh-ahead")
	}
	p.PrefetchFraction = 0.4
	if !p.prefetchTriggered(120, 300) || p.prefetchTriggered(121, 300) {
		t.Errorf("fraction 0.4 of 300 s must trigger with 120 s left and not with 121")
	}
}

// TestServerRotation: resolvers rotate between a zone's authoritative
// servers (the Müller et al. behavior the paper cites as [37]).
func TestServerRotation(t *testing.T) {
	tn := newTestNet(t)
	// Second uy server.
	uy2 := netip.MustParseAddr("200.40.0.2")
	srv2 := authoritative.NewServer(dnswire.NewName("b.nic.uy"), tn.clock)
	srv2.AddZone(tn.uy)
	tn.net.Attach(uy2, srv2)
	tn.uy.MustAdd(
		dnswire.NewNS("uy", 300, "b.nic.uy"),
		dnswire.NewA("b.nic.uy", 120, uy2.String()),
	)
	tn.root.MustAdd(
		dnswire.NewNS("uy", 172800, "b.nic.uy"),
		dnswire.NewA("b.nic.uy", 172800, uy2.String()),
	)
	r := tn.resolver(DefaultPolicy(), 3)
	for i := 0; i < 20; i++ {
		mustResolve(t, r, "uy", dnswire.TypeNS)
		tn.clock.Advance(400 * time.Second) // expire the NS each round
	}
	if tn.uySrv.QueryCount() == 0 || srv2.QueryCount() == 0 {
		t.Errorf("rotation: server counts %d / %d — both should be used",
			tn.uySrv.QueryCount(), srv2.QueryCount())
	}
}

// TestRetryOnLoss: a lossy network costs timeouts but retries succeed.
func TestRetryOnLoss(t *testing.T) {
	tn := newTestNet(t)
	// Second uy server so a retry has somewhere to go.
	uy2 := netip.MustParseAddr("200.40.0.2")
	srv2 := authoritative.NewServer(dnswire.NewName("b.nic.uy"), tn.clock)
	srv2.AddZone(tn.uy)
	tn.net.Attach(uy2, srv2)
	tn.uy.MustAdd(
		dnswire.NewNS("uy", 300, "b.nic.uy"),
		dnswire.NewA("b.nic.uy", 120, uy2.String()),
	)
	tn.root.MustAdd(
		dnswire.NewNS("uy", 172800, "b.nic.uy"),
		dnswire.NewA("b.nic.uy", 172800, uy2.String()),
	)
	// The first uy server drops everything.
	if err := tn.net.SetDown(tn.uyAddr, true); err != nil {
		t.Fatal(err)
	}
	succeeded := 0
	timeouts := 0
	for seed := int64(0); seed < 8; seed++ {
		r := tn.resolver(DefaultPolicy(), seed)
		res, err := r.Resolve(dnswire.NewName("uy"), dnswire.TypeNS)
		if err == nil && res.Msg.Header.RCode == dnswire.RCodeNoError {
			succeeded++
			timeouts += res.Timeouts
		}
	}
	if succeeded != 8 {
		t.Errorf("only %d of 8 resolutions succeeded with one server down", succeeded)
	}
	if timeouts == 0 {
		t.Errorf("no timeouts recorded despite a dead server")
	}
}

// TestLameReferral: a server that answers with a referral not descending
// toward the name must not loop.
func TestLameReferral(t *testing.T) {
	clock := simnet.NewVirtualClock()
	net := simnet.NewNetwork(1)
	rootAddr := netip.MustParseAddr("192.0.2.1")
	lame := simnet.HandlerFunc(func(wire []byte, _ netip.Addr) []byte {
		q, err := dnswire.Decode(wire)
		if err != nil {
			return nil
		}
		resp := q.Reply()
		// Referral to an unrelated zone: lame.
		resp.AddAuthority(dnswire.NewNS("unrelated.test", 300, "ns1.unrelated.test"))
		resp.AddAdditional(dnswire.NewA("ns1.unrelated.test", 300, "192.0.2.9"))
		out, _ := dnswire.Encode(resp)
		return out
	})
	net.Attach(rootAddr, lame)
	r := New(netip.MustParseAddr("10.0.0.1"), DefaultPolicy(), net, clock, []netip.Addr{rootAddr}, 1)
	res, _ := r.Resolve(dnswire.NewName("www.example.org"), dnswire.TypeA)
	if res.Msg.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("lame referral should SERVFAIL, got %s", res.Msg.Header.RCode)
	}
}

// TestReferralSelfLoop: a server refers to the zone it was asked about.
func TestReferralSelfLoop(t *testing.T) {
	clock := simnet.NewVirtualClock()
	net := simnet.NewNetwork(1)
	rootAddr := netip.MustParseAddr("192.0.2.1")
	selfSrv := simnet.HandlerFunc(func(wire []byte, _ netip.Addr) []byte {
		q, err := dnswire.Decode(wire)
		if err != nil {
			return nil
		}
		resp := q.Reply()
		resp.AddAuthority(dnswire.NewNS("example.org", 300, "ns1.example.org"))
		resp.AddAdditional(dnswire.NewA("ns1.example.org", 300, rootAddr.String()))
		out, _ := dnswire.Encode(resp)
		return out
	})
	net.Attach(rootAddr, selfSrv)
	r := New(netip.MustParseAddr("10.0.0.1"), DefaultPolicy(), net, clock, []netip.Addr{rootAddr}, 1)
	res, _ := r.Resolve(dnswire.NewName("www.example.org"), dnswire.TypeA)
	if res.Msg.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("referral loop should SERVFAIL, got %s", res.Msg.Header.RCode)
	}
	if res.Queries > maxSteps+5 {
		t.Errorf("loop not bounded: %d queries", res.Queries)
	}
}

// TestGarbageResponse: undecodable responses are survivable errors.
func TestGarbageResponse(t *testing.T) {
	clock := simnet.NewVirtualClock()
	net := simnet.NewNetwork(1)
	rootAddr := netip.MustParseAddr("192.0.2.1")
	net.Attach(rootAddr, simnet.HandlerFunc(func([]byte, netip.Addr) []byte {
		return []byte{0xde, 0xad}
	}))
	r := New(netip.MustParseAddr("10.0.0.1"), DefaultPolicy(), net, clock, []netip.Addr{rootAddr}, 1)
	res, _ := r.Resolve(dnswire.NewName("x.org"), dnswire.TypeA)
	if res.Msg.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("garbage should SERVFAIL, got %s", res.Msg.Header.RCode)
	}
}

// TestIDMismatch: responses with the wrong transaction ID are rejected.
func TestIDMismatch(t *testing.T) {
	clock := simnet.NewVirtualClock()
	net := simnet.NewNetwork(1)
	rootAddr := netip.MustParseAddr("192.0.2.1")
	net.Attach(rootAddr, simnet.HandlerFunc(func(wire []byte, _ netip.Addr) []byte {
		q, err := dnswire.Decode(wire)
		if err != nil {
			return nil
		}
		resp := q.Reply()
		resp.Header.ID ^= 0xFFFF // spoof-like mismatch
		resp.AddAnswer(dnswire.NewA("x.org", 60, "192.0.2.80"))
		out, _ := dnswire.Encode(resp)
		return out
	}))
	r := New(netip.MustParseAddr("10.0.0.1"), DefaultPolicy(), net, clock, []netip.Addr{rootAddr}, 1)
	res, _ := r.Resolve(dnswire.NewName("x.org"), dnswire.TypeA)
	if res.Msg.Header.RCode != dnswire.RCodeServFail || len(res.Msg.Answer) != 0 {
		t.Errorf("mismatched ID must be rejected: %s", res.Msg)
	}
}

// TestQuestionMismatch: a reply under the right ID whose question is not the
// query's — another name, another type — is rejected (RFC 5452 §9.1), so
// nothing is cached for either name; the same reply spelled in another case
// is the query's and is accepted.
func TestQuestionMismatch(t *testing.T) {
	x, other := dnswire.NewName("x.org"), dnswire.NewName("other.org")
	cases := []struct {
		name  string
		reply dnswire.Question // the question the reply carries, answered with an A
		ok    bool
	}{
		{"another name", dnswire.Question{Name: other, Type: dnswire.TypeA, Class: dnswire.ClassIN}, false},
		{"another type", dnswire.Question{Name: x, Type: dnswire.TypeAAAA, Class: dnswire.ClassIN}, false},
		{"another case", dnswire.Question{Name: "X.ORG.", Type: dnswire.TypeA, Class: dnswire.ClassIN}, true},
	}
	for _, c := range cases {
		clock := simnet.NewVirtualClock()
		net := simnet.NewNetwork(1)
		rootAddr := netip.MustParseAddr("192.0.2.1")
		net.Attach(rootAddr, simnet.HandlerFunc(func(wire []byte, _ netip.Addr) []byte {
			q, err := dnswire.Decode(wire)
			if err != nil {
				return nil
			}
			q.Question[0] = c.reply
			resp := q.Reply()
			resp.Header.AA = true
			resp.AddAnswer(dnswire.RR{Name: c.reply.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.80")}})
			out, _ := dnswire.Encode(resp)
			return out
		}))
		r := New(netip.MustParseAddr("10.0.0.1"), DefaultPolicy(), net, clock, []netip.Addr{rootAddr}, 1)
		res, _ := r.Resolve(x, dnswire.TypeA)
		if got := res.Msg.Header.RCode == dnswire.RCodeNoError && len(res.Msg.Answer) == 1; got != c.ok {
			t.Errorf("%s: answered = %v, want %v: %s", c.name, got, c.ok, res.Msg)
		}
		_, _, cachedX := r.Cache.Get(x, dnswire.TypeA)
		_, _, cachedOther := r.Cache.Get(other, dnswire.TypeA)
		if cachedX != c.ok || cachedOther {
			t.Errorf("%s: cached x.org = %v, other.org = %v; want %v, false", c.name, cachedX, cachedOther, c.ok)
		}
		if res.Timeouts != 0 {
			t.Errorf("%s: %d timeouts: a rejected reply is not a timeout", c.name, res.Timeouts)
		}
	}
}

func TestNoRootHints(t *testing.T) {
	clock := simnet.NewVirtualClock()
	net := simnet.NewNetwork(1)
	r := New(netip.MustParseAddr("10.0.0.1"), DefaultPolicy(), net, clock, nil, 1)
	res, _ := r.Resolve(dnswire.NewName("x.org"), dnswire.TypeA)
	if res.Msg.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("no hints should SERVFAIL")
	}
}

// TestLocalRootNegative covers local-root answer/NXDOMAIN/NODATA paths.
func TestLocalRootNegative(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.LocalRoot = true
	r := tn.resolver(pol, 1)
	r.LocalRootZone = tn.root
	if err := tn.net.SetDown(tn.rootAddr, true); err != nil {
		t.Fatal(err)
	}
	// Root's own NS: answered straight from the mirror.
	res := mustResolve(t, r, ".", dnswire.TypeNS)
	if len(res.Msg.Answer) == 0 {
		t.Errorf("root NS should come from the mirror")
	}
	// A name under no TLD: NXDOMAIN from the mirror.
	res, _ = r.Resolve(dnswire.NewName("no-such-tld-zz"), dnswire.TypeA)
	if res.Msg.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("mirror NXDOMAIN: got %s", res.Msg.Header.RCode)
	}
	// Root apex, type with no records: NODATA.
	res, _ = r.Resolve(dnswire.Root, dnswire.TypeMX)
	if res.Msg.Header.RCode != dnswire.RCodeNoError || len(res.Msg.Answer) != 0 {
		t.Errorf("mirror NODATA: %s", res.Msg)
	}
}

// TestInBailiwickHostWithoutGlue: the dead-end case — an in-bailiwick NS
// host with no glue cannot be resolved.
func TestInBailiwickHostWithoutGlue(t *testing.T) {
	clock := simnet.NewVirtualClock()
	net := simnet.NewNetwork(1)
	rootAddr := netip.MustParseAddr("192.0.2.1")
	root := zone.New(dnswire.Root)
	root.MustAdd(
		dnswire.NewSOA(".", 86400, "a.root-servers.net.", "x.", 1, 1, 1, 1, 86400),
		dnswire.NewNS(".", 518400, "a.root-servers.net"),
		dnswire.NewA("a.root-servers.net", 518400, rootAddr.String()),
		// Glueless in-bailiwick delegation: unreachable by construction.
		dnswire.NewNS("broken.test", 300, "ns1.broken.test"),
	)
	srv := authoritative.NewServer(dnswire.NewName("a.root-servers.net"), clock)
	srv.AddZone(root)
	net.Attach(rootAddr, srv)
	r := New(netip.MustParseAddr("10.0.0.1"), DefaultPolicy(), net, clock, []netip.Addr{rootAddr}, 1)
	res, _ := r.Resolve(dnswire.NewName("www.broken.test"), dnswire.TypeA)
	if res.Msg.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("glueless in-bailiwick delegation should SERVFAIL, got %s", res.Msg.Header.RCode)
	}
}

func TestClampTTL(t *testing.T) {
	r := &Resolver{Policy: Policy{TTLCap: 100}}
	if r.clampTTL(500, nil) != 100 || r.clampTTL(5, nil) != 5 || r.clampTTL(50, nil) != 50 {
		t.Errorf("clampTTL wrong")
	}
	r2 := &Resolver{}
	if r2.clampTTL(12345, nil) != 12345 {
		t.Errorf("no-policy clamp should be identity")
	}
}

// TestCachedAddressPrefersAThenAAAA exercises the AAAA fallback.
func TestCachedAddressPrefersAThenAAAA(t *testing.T) {
	tn := newTestNet(t)
	r := tn.resolver(DefaultPolicy(), 1)
	// Seed the cache with only an AAAA for a host.
	r.Cache.Put(cacheEntryAAAA())
	if a := r.cachedAddress(dnswire.NewName("v6only.test")); !a.Is6() {
		t.Errorf("cachedAddress should fall back to AAAA, got %v", a)
	}
	if a := r.cachedAddress(dnswire.NewName("unknown.test")); a.IsValid() {
		t.Errorf("unknown host should yield zero Addr")
	}
}

func cacheEntryAAAA() cache.Entry {
	rr := dnswire.NewAAAA("v6only.test", 300, "2001:db8::5")
	return cache.Entry{
		Key:  cache.Key{Name: dnswire.NewName("v6only.test"), Type: dnswire.TypeAAAA},
		RRs:  []dnswire.RR{rr},
		TTL:  300,
		Cred: cache.CredAnswerAuth,
	}
}

// TestQuickAnswerTTLBounded is the paper-level invariant: whatever the
// parent/child TTL configuration and resolver policy, an answered TTL never
// exceeds the largest configured value for the record (TTLs only decay or
// get capped — nothing in the resolution pipeline may inflate them).
func TestQuickAnswerTTLBounded(t *testing.T) {
	f := func(parentRaw, childRaw uint16, parentCentric, capped bool, advance uint16) bool {
		parentTTL := uint32(parentRaw)%172800 + 1
		childTTL := uint32(childRaw)%86400 + 1
		tn := newTestNet(t)
		if !tn.root.SetTTL(dnswire.NewName("uy"), dnswire.TypeNS, parentTTL) {
			return false
		}
		if !tn.uy.SetTTL(dnswire.NewName("uy"), dnswire.TypeNS, childTTL) {
			return false
		}
		pol := DefaultPolicy()
		if parentCentric {
			pol.Centricity = ParentCentric
		}
		if capped {
			pol.TTLCap = 21599
			pol.CapAtServe = true
		}
		r := tn.resolver(pol, int64(parentRaw)<<16|int64(childRaw))
		// Caps only lower values, so max(parent, child) bounds every
		// policy's answers.
		bound := parentTTL
		if childTTL > bound {
			bound = childTTL
		}
		for i := 0; i < 3; i++ {
			res, err := r.Resolve(dnswire.NewName("uy"), dnswire.TypeNS)
			if err != nil {
				return false
			}
			if res.Msg.Header.RCode == dnswire.RCodeNoError && res.AnswerTTL > bound {
				t.Logf("answer TTL %d exceeds bound %d (parent %d, child %d, pc=%v cap=%v)",
					res.AnswerTTL, bound, parentTTL, childTTL, parentCentric, capped)
				return false
			}
			tn.clock.Advance(time.Duration(advance%7200) * time.Second)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReferralCachedInWireOrder pins the order a referral is cached in: NS
// sets, then glue, each in wire order, the child being the first NS owner. It
// used to be Go map-iteration order, so under a cache bound the eviction
// victims — and with them the cache contents — differed from run to run.
func TestReferralCachedInWireOrder(t *testing.T) {
	referral := &dnswire.Message{Header: dnswire.Header{QR: true}}
	for _, ns := range []string{"ns1", "ns2", "ns3", "ns4"} {
		host := ns + ".example.net"
		referral.AddAuthority(dnswire.NewNS("example.net", 3600, host))
		referral.AddAdditional(dnswire.NewA(host, 3600, "192.0.2.1"))
	}
	referral.AddAuthority(dnswire.NewNS("stray.net", 3600, "ns1.example.net"))
	want := []cache.Key{
		{Name: dnswire.NewName("ns2.example.net"), Type: dnswire.TypeA},
		{Name: dnswire.NewName("ns3.example.net"), Type: dnswire.TypeA},
		{Name: dnswire.NewName("ns4.example.net"), Type: dnswire.TypeA},
	}
	clock := simnet.NewVirtualClock()
	for run := 0; run < 100; run++ {
		r := New(netip.MustParseAddr("10.0.0.2"), DefaultPolicy(), nil, clock, nil, 1)
		r.Cache = cache.New(clock, cache.Config{Capacity: 3}) // FIFO: the last three Puts survive
		if child := r.cacheReferral(referral, clock.Now()); child != dnswire.NewName("example.net") {
			t.Fatalf("run %d: child = %q, want the first NS owner", run, child)
		}
		if got := r.Cache.Keys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: cache holds %v, want %v", run, got, want)
		}
	}
}
