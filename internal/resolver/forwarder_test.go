package resolver

import (
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
)

// attachRecursive puts a full resolver on the network as a server.
func attachRecursive(tn *testNet, addr netip.Addr, pol Policy, seed int64) *Resolver {
	r := New(addr, pol, tn.net, tn.clock, []netip.Addr{tn.rootAddr}, seed)
	tn.net.Attach(addr, Handler{R: r})
	return r
}

func TestForwarderBasics(t *testing.T) {
	tn := newTestNet(t)
	up := netip.MustParseAddr("172.30.0.1")
	attachRecursive(tn, up, DefaultPolicy(), 1)
	fw := NewForwarder(netip.MustParseAddr("192.168.1.1"), []netip.Addr{up}, tn.net, tn.clock, 2)

	res, err := fw.Resolve(dnswire.NewName("www.cachetest.net"), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Msg.Header.RCode != dnswire.RCodeNoError || len(res.Msg.Answer) != 1 {
		t.Fatalf("forwarded answer: %s", res.Msg)
	}
	if res.AnswerTTL != 300 || res.CacheHit {
		t.Errorf("first answer: ttl=%d hit=%v", res.AnswerTTL, res.CacheHit)
	}
	if res.FinalServer != up {
		t.Errorf("final server = %v, want the upstream", res.FinalServer)
	}

	// Second query: the forwarder's own cache answers, decayed.
	tn.clock.Advance(50 * time.Second)
	res, err = fw.Resolve(dnswire.NewName("www.cachetest.net"), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.AnswerTTL != 250 {
		t.Errorf("forwarder cache: hit=%v ttl=%d", res.CacheHit, res.AnswerTTL)
	}
}

func TestForwarderNegativeCaching(t *testing.T) {
	tn := newTestNet(t)
	up := netip.MustParseAddr("172.30.0.1")
	attachRecursive(tn, up, DefaultPolicy(), 1)
	fw := NewForwarder(netip.MustParseAddr("192.168.1.1"), []netip.Addr{up}, tn.net, tn.clock, 2)

	res, err := fw.Resolve(dnswire.NewName("missing.cachetest.net"), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Msg.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %s", res.Msg.Header.RCode)
	}
	res, err = fw.Resolve(dnswire.NewName("missing.cachetest.net"), dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || res.Msg.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("negative answer not cached by forwarder: hit=%v rcode=%s",
			res.CacheHit, res.Msg.Header.RCode)
	}
}

func TestForwarderNoUpstreams(t *testing.T) {
	tn := newTestNet(t)
	fw := NewForwarder(netip.MustParseAddr("192.168.1.1"), nil, tn.net, tn.clock, 2)
	res, err := fw.Resolve(dnswire.NewName("x.org"), dnswire.TypeA)
	if err != nil || res.Msg.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("upstream-less forwarder: %v %s", err, res.Msg.Header.RCode)
	}
}

func TestForwarderUpstreamDown(t *testing.T) {
	tn := newTestNet(t)
	up := netip.MustParseAddr("172.30.0.1")
	attachRecursive(tn, up, DefaultPolicy(), 1)
	if err := tn.net.SetDown(up, true); err != nil {
		t.Fatal(err)
	}
	fw := NewForwarder(netip.MustParseAddr("192.168.1.1"), []netip.Addr{up}, tn.net, tn.clock, 2)
	res, err := fw.Resolve(dnswire.NewName("x.org"), dnswire.TypeA)
	if err != nil || res.Msg.Header.RCode != dnswire.RCodeServFail || res.Timeouts != 1 {
		t.Errorf("dead upstream: %v %s timeouts=%d", err, res.Msg.Header.RCode, res.Timeouts)
	}
}

// TestFarmFragmentation reproduces the §4.4 observation: behind a
// passthrough frontend with independent backend caches, a client can see a
// mix of old and new content after a renumbering, because each query lands
// on a backend whose cache is in a different state.
func TestFarmFragmentation(t *testing.T) {
	tn := newTestNet(t)
	// Farm: 4 parent-centric backends (the OpenDNS case).
	pol := DefaultPolicy()
	pol.Centricity = ParentCentric
	var ups []netip.Addr
	for i := 0; i < 4; i++ {
		addr := netip.AddrFrom4([4]byte{172, 30, 1, byte(i + 1)})
		attachRecursive(tn, addr, pol, int64(i+10))
		ups = append(ups, addr)
	}
	fw := NewForwarder(netip.MustParseAddr("192.168.1.1"), ups, tn.net, tn.clock, 3)
	fw.Passthrough = true

	name := dnswire.NewName("probe.sub.cachetest.net")
	// Warm only two of the four backends before the renumber by querying
	// until both have answered (passthrough picks randomly).
	warmed := map[netip.Addr]bool{}
	for len(warmed) < 2 {
		res, err := fw.Resolve(name, dnswire.TypeAAAA)
		if err != nil {
			t.Fatal(err)
		}
		warmed[res.FinalServer] = true
	}
	_ = warmed

	// Renumber; warmed backends hold the old glue (7200 s from the
	// cachetest.net referral), cold backends will learn the new address.
	tn.renumberSub(t)
	tn.net.Attach(tn.subAddr, tn.subSrv)
	tn.clock.Advance(2 * time.Minute)

	answers := map[string]bool{}
	for i := 0; i < 40; i++ {
		res, err := fw.Resolve(name, dnswire.TypeAAAA)
		if err != nil || len(res.Msg.Answer) == 0 {
			continue
		}
		answers[res.Msg.Answer[len(res.Msg.Answer)-1].Data.String()] = true
		tn.clock.Advance(90 * time.Second) // probe AAAA TTL is 60 s
	}
	if len(answers) < 2 {
		t.Errorf("expected mixed old/new answers from a fragmented farm, got %v", answers)
	}
}

// TestForwarderNegTTLPolicy pins the no-SOA negative-caching path: the
// fallback TTL comes from the policy (not a hard-coded constant) and is
// clamped by the policy cap/floor exactly like positive TTLs.
func TestForwarderNegTTLPolicy(t *testing.T) {
	tn := newTestNet(t)
	up := netip.MustParseAddr("172.30.0.1")
	attachRecursive(tn, up, DefaultPolicy(), 1)
	missing := dnswire.NewName("missing.cachetest.net")

	// The recursive upstream's NXDomain reply carries no SOA, so the
	// forwarder must use its policy fallback — here 900 s, capped to 600.
	fw := NewForwarder(netip.MustParseAddr("192.168.1.1"), []netip.Addr{up}, tn.net, tn.clock, 2)
	fw.Policy.NegTTLFallback = 900
	fw.Policy.TTLCap = 600
	if res, err := fw.Resolve(missing, dnswire.TypeA); err != nil || res.Msg.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("resolve: %v", err)
	}
	if _, rem, ok := fw.Cache.Get(missing, dnswire.TypeA); !ok || rem != 600 {
		t.Errorf("negative TTL = %d (ok=%v), want the 900 s fallback capped to 600", rem, ok)
	}

	// Zero-value policy keeps the old 60 s default.
	fw2 := NewForwarder(netip.MustParseAddr("192.168.1.2"), []netip.Addr{up}, tn.net, tn.clock, 3)
	if _, err := fw2.Resolve(missing, dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if _, rem, ok := fw2.Cache.Get(missing, dnswire.TypeA); !ok || rem != 60 {
		t.Errorf("default negative TTL = %d (ok=%v), want 60", rem, ok)
	}

	// The floor raises tiny fallbacks, as it does for positive TTLs.
	fw3 := NewForwarder(netip.MustParseAddr("192.168.1.3"), []netip.Addr{up}, tn.net, tn.clock, 4)
	fw3.Policy.NegTTLFallback = 5
	fw3.Policy.TTLFloor = 30
	if _, err := fw3.Resolve(missing, dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if _, rem, ok := fw3.Cache.Get(missing, dnswire.TypeA); !ok || rem != 30 {
		t.Errorf("floored negative TTL = %d (ok=%v), want 30", rem, ok)
	}
}

// TestHandlerStampsSharedMessage: a resolved message may be shared between
// clients (here every query joins one coalesced result), so the handler puts
// each client's ID and RD into the encoded bytes and never into the message.
func TestHandlerStampsSharedMessage(t *testing.T) {
	tn := newTestNet(t)
	name := dnswire.NewName("www.cachetest.net")
	shared, err := New(netip.MustParseAddr("172.30.0.2"), DefaultPolicy(), tn.net, tn.clock,
		[]netip.Addr{tn.rootAddr}, 1).Resolve(name, dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	header := shared.Msg.Header
	r := New(netip.MustParseAddr("172.30.0.1"), DefaultPolicy(), tn.net, tn.clock, []netip.Addr{tn.rootAddr}, 1)
	r.Coalesce = func(cache.Key, func() (*Result, error)) (*Result, error, bool) { return shared, nil, true }
	for _, c := range []struct {
		id uint16
		rd bool
	}{{0x1111, true}, {0x2222, false}} {
		q := dnswire.NewQuery(c.id, name, dnswire.TypeA)
		q.Header.RD = c.rd
		wire, err := dnswire.Encode(q)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dnswire.Decode(Handler{R: r}.ServeDNS(wire, netip.MustParseAddr("192.168.1.1")))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != c.id || resp.Header.RD != c.rd || len(resp.Answer) != 1 {
			t.Errorf("reply to %#04x/RD=%v: %s", c.id, c.rd, resp)
		}
		if shared.Msg.Header != header {
			t.Fatalf("shared message header written: %+v, was %+v", shared.Msg.Header, header)
		}
	}
}
