package dnsttl

import (
	"io/fs"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

// TestFacadeDNSSEC drives the public signing/validation API end to end.
func TestFacadeDNSSEC(t *testing.T) {
	z, err := ParseZone(orgZoneText, NewName("example.org"))
	if err != nil {
		t.Fatal(err)
	}
	key := NewSigningKey(NewName("example.org"), 7)
	n, err := SignZone(z, key, simnet.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if n < 4 {
		t.Fatalf("signed %d RRsets", n)
	}
	www := z.Get(NewName("www.example.org"), TypeA)
	sigs := z.Get(NewName("www.example.org"), Type(46)) // RRSIG
	if www == nil || sigs == nil {
		t.Fatal("signed sets missing")
	}
	if err := VerifyRRSet(key.DNSKEY(3600), www.RRs, sigs.RRs[0], simnet.Epoch); err != nil {
		t.Errorf("VerifyRRSet: %v", err)
	}
	// Inflated TTLs fail, decayed pass — the §2 property.
	inflated := z.Get(NewName("www.example.org"), TypeA)
	inflated.RRs[0].TTL = 999999
	if err := VerifyRRSet(key.DNSKEY(3600), inflated.RRs, sigs.RRs[0], simnet.Epoch); err == nil {
		t.Errorf("inflated TTL must fail verification")
	}
}

// TestFacadeStubThroughDaemon sends a stub's RD=1 query through the public
// TransportNet to a loopback recursive daemon over real UDP.
func TestFacadeStubThroughDaemon(t *testing.T) {
	srv := NewServer(NewName("a.root-servers.net"), nil)
	for origin, text := range map[string]string{".": rootZoneText, "example.org": orgZoneText} {
		z, err := ParseZone(text, NewName(origin))
		if err != nil {
			t.Fatal(err)
		}
		srv.AddZone(z)
	}
	authAddr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := NewClient(ClientConfig{
		Roots: []netip.Addr{authAddr.Addr()},
		Net:   loopbackNet(t, authAddr.Port()),
	})
	if err != nil {
		t.Fatal(err)
	}
	rd := &RecursiveServer{Client: client}
	rdAddr, err := rd.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	stub := loopbackNet(t, rdAddr.Port())
	for i, wantHits := range []uint64{0, 1} {
		resp, _, err := simnet.Ask(stub, netip.Addr{}, rdAddr.Addr(), dnswire.NewQuery(7, NewName("www.example.org"), TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.RCode != RCodeNoError || len(resp.Answer) == 0 {
			t.Fatalf("query %d over UDP: %s", i, resp.Header.RCode)
		}
		// The daemon's cache serves the repeat.
		if st := client.CacheStats(); st.Hits != wantHits {
			t.Errorf("query %d: cache hits = %d, want %d", i, st.Hits, wantHits)
		}
	}
}

// TestRunAllExperimentsTiny smoke-runs the whole registry at a tiny scale —
// the `ttlrepro -experiment all` path.
func TestRunAllExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := ExperimentScale{Probes: 60, CrawlScale: 0.02, Resolvers: 60, Seed: 7}
	reports, err := RunAllExperiments(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(ExperimentIDs) {
		t.Errorf("got %d reports for %d ids", len(reports), len(ExperimentIDs))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		if r.ID == "" || r.Text == "" {
			t.Errorf("incomplete report %q", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate report id %q", r.ID)
		}
		seen[r.ID] = true
	}
	// FullScale is a valid configuration too.
	if FullScale().Probes <= QuickScale().Probes {
		t.Errorf("FullScale should exceed QuickScale")
	}
}

// TestRecursiveServerErrorPaths covers the daemon's SERVFAIL fallback.
func TestRecursiveServerErrorPaths(t *testing.T) {
	// A client with unreachable roots: every lookup SERVFAILs, and the
	// daemon surfaces that rather than dropping.
	client, err := NewClient(ClientConfig{
		Roots: []netip.Addr{netip.MustParseAddr("127.0.0.1")},
		Net:   loopbackNet(t, 1), // nothing listens
	})
	if err != nil {
		t.Fatal(err)
	}
	rd := &RecursiveServer{Client: client}
	q := &Message{Header: Header{ID: 9, RD: true},
		Question: []Question{{Name: NewName("x.org"), Type: TypeA, Class: 1}}}
	wire, err := Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	respWire := rd.ServeDNS(wire, netip.Addr{})
	if respWire == nil {
		t.Fatal("no response")
	}
	resp, err := Decode(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != RCodeServFail || resp.Header.ID != 9 {
		t.Errorf("daemon error path: %+v", resp.Header)
	}
	if err := rd.Close(); err != nil {
		t.Errorf("Close on unlistened daemon: %v", err)
	}
	if !strings.Contains(RCodeServFail.String(), "SERVFAIL") {
		t.Errorf("rcode string")
	}
}

// TestFacadeFarmClient runs the public Client in farm mode over the
// simulation network: three sharded frontends behind the random balancer
// behave like one resolver (a repeat hits cache on a different frontend),
// and fleet telemetry is exposed through FarmStats.
func TestFacadeFarmClient(t *testing.T) {
	rootZone, err := ParseZone(rootZoneText, NewName("."))
	if err != nil {
		t.Fatal(err)
	}
	orgZone, err := ParseZone(orgZoneText, NewName("example.org"))
	if err != nil {
		t.Fatal(err)
	}
	clock := NewVirtualClock()
	net := simnet.NewNetwork(1)
	srv := NewServer(NewName("a.root-servers.net"), clock)
	srv.AddZone(rootZone)
	srv.AddZone(orgZone)
	net.Attach(netip.MustParseAddr("127.0.0.1"), srv.s)

	client, err := NewClient(ClientConfig{
		Roots:     []netip.Addr{netip.MustParseAddr("127.0.0.1")},
		Net:       net,
		Clock:     clock,
		Frontends: 3,
		Topology:  FarmSharded,
		Coalesce:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Lookup(NewName("www.example.org"), TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit || len(res.Msg.Answer) == 0 {
		t.Fatalf("first farm lookup: hit=%v answers=%d", res.CacheHit, len(res.Msg.Answer))
	}
	// Repeat until a second frontend has served the name; the sharded pool
	// makes every repeat a hit, whichever frontend it lands on.
	served := func() (n int) {
		fs, _ := client.FarmStats()
		for _, fe := range fs.PerFrontend {
			if fe.Client > 0 {
				n++
			}
		}
		return n
	}
	for i := 0; served() < 2; i++ {
		res, err = client.Lookup(NewName("www.example.org"), TypeA)
		if err != nil || i == 100 {
			t.Fatalf("repeat %d reached %d frontends: %v", i, served(), err)
		}
		if !res.CacheHit {
			t.Errorf("repeat %d missed: the sharded farm cache is fragmented", i)
		}
	}
	fs, ok := client.FarmStats()
	if !ok {
		t.Fatal("farm client reports no FarmStats")
	}
	if len(fs.PerFrontend) != 3 || fs.Total.Hits != fs.Total.Client-1 {
		t.Errorf("farm stats = %+v", fs.Total)
	}
	if st := client.CacheStats(); st.Hits != fs.Total.Hits || st.Entries == 0 {
		t.Errorf("aggregated cache stats = %+v", st)
	}

	// A single-resolver client has no farm telemetry.
	single, err := NewClient(ClientConfig{
		Roots: []netip.Addr{netip.MustParseAddr("127.0.0.1")},
		Net:   net, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := single.FarmStats(); ok {
		t.Errorf("single-resolver client should report ok=false from FarmStats")
	}
}

// TestOnlyTransportOpensClientSockets holds the one-exchange invariant at
// the source level: outside bench/ and tests, only internal/transport dials
// — plus push.go's sendNotifyUDP, a one-way datagram with no reply to match.
func TestOnlyTransportOpensClientSockets(t *testing.T) {
	dial := regexp.MustCompile(`\b(net|tls)\.Dial\w*\(`)
	allowed := map[string]int{"push.go": 1}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == filepath.Join("internal", "transport") || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if n, want := len(dial.FindAll(src, -1)), allowed[filepath.ToSlash(path)]; n != want {
			t.Errorf("%s dials %d time(s), want %d: a DNS exchange on a real socket belongs to internal/transport", path, n, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClientOwnsDefaultNet pins who closes the client's net. NewClient builds
// the nil-Net default (pooled UDP toward port 53) and Client.Close releases
// it; a net the caller supplied is the caller's to close.
func TestClientOwnsDefaultNet(t *testing.T) {
	www := mustEncode(t, dnswire.NewQuery(1, NewName("www.example.org"), TypeA))

	// No server is involved: the owned net only ever exchanges once closed.
	local := netip.MustParseAddr("127.0.0.1")
	c, err := NewClient(ClientConfig{Roots: []netip.Addr{local}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	closed := loopbackNet(t, 53)
	closed.Close()
	_, _, want := closed.Exchange(netip.Addr{}, local, www)
	if _, _, got := c.net.Exchange(netip.Addr{}, local, www); got == nil || got != want {
		t.Errorf("exchange on the closed default net: %v, want the transport's %v with no dial", got, want)
	}
	res, err := c.Lookup(NewName("www.example.org"), TypeA)
	if err != nil || res.Msg.Header.RCode != RCodeServFail || res.Timeouts == 0 {
		t.Errorf("lookup after Close: err=%v %+v, want SERVFAIL from failed exchanges", err, res)
	}

	srv := &Server{s: serveFixture(t, 0)}
	addr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shared := loopbackNet(t, addr.Port())
	for i := 0; i < 2; i++ {
		c, err := NewClient(ClientConfig{Roots: []netip.Addr{addr.Addr()}, Net: shared})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Lookup(NewName("www.example.org"), TypeA)
		if err != nil || res.Msg.Header.RCode != RCodeNoError || res.Queries == 0 {
			t.Fatalf("client %d through the shared net: err=%v %+v", i+1, err, res)
		}
		if err := c.Close(); err != nil {
			t.Errorf("client %d Close: %v", i+1, err)
		}
	}
}
