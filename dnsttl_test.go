package dnsttl

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnsttl/internal/simnet"
)

const rootZoneText = `
$ORIGIN .
@                  86400 IN SOA a.root-servers.net. nstld.example. 1 1800 900 604800 86400
@                  518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 127.0.0.1
example.org.       172800 IN NS ns1.example.org.
ns1.example.org.   172800 IN A 127.0.0.1
`

const orgZoneText = `
$ORIGIN example.org.
@     3600 IN SOA ns1 admin 1 7200 3600 1209600 300
@     3600 IN NS ns1
ns1   3600 IN A 127.0.0.1
www   300  IN A 192.0.2.80
`

// TestEndToEndUDP runs a real authoritative server on loopback UDP and
// resolves through the public Client API — the full stack over the OS
// network path.
func TestEndToEndUDP(t *testing.T) {
	rootZone, err := ParseZone(rootZoneText, NewName("."))
	if err != nil {
		t.Fatal(err)
	}
	orgZone, err := ParseZone(orgZoneText, NewName("example.org"))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewName("a.root-servers.net"), nil)
	srv.AddZone(rootZone)
	srv.AddZone(orgZone)
	addr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := NewClient(ClientConfig{
		Roots: []netip.Addr{addr.Addr()},
		Net:   loopbackNet(t, addr.Port()),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Lookup(NewName("www.example.org"), TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Msg.Header.RCode != RCodeNoError || len(res.Msg.Answer) != 1 {
		t.Fatalf("lookup failed: %s", res.Msg)
	}
	if res.AnswerTTL != 300 {
		t.Errorf("TTL = %d, want 300", res.AnswerTTL)
	}
	if res.Latency <= 0 || res.Queries == 0 {
		t.Errorf("trace: %+v", res.Trace)
	}

	// Second lookup hits the cache.
	res, err = client.Lookup(NewName("www.example.org"), TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Errorf("second lookup should hit cache")
	}
	if st := client.CacheStats(); st.Hits == 0 || st.Entries == 0 {
		t.Errorf("cache stats: %+v", st)
	}
	if srv.QueryCount() == 0 {
		t.Errorf("server saw no queries")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Errorf("NewClient without roots must fail")
	}
}

// TestNewClientLocalRootNeedsMirror: a policy that mirrors the root without
// a mirror to read would silently iterate from the root hints instead.
func TestNewClientLocalRootNeedsMirror(t *testing.T) {
	pol := DefaultPolicy()
	pol.LocalRoot = true
	c, err := NewClient(ClientConfig{
		Policy: pol,
		Roots:  []netip.Addr{netip.MustParseAddr("192.0.2.1")},
		Net:    simnet.NewNetwork(1),
	})
	if err == nil {
		_ = c.Close()
		t.Fatal("NewClient accepted Policy.LocalRoot without ClientConfig.LocalRoot")
	}
}

func TestAdviseFacade(t *testing.T) {
	cfg := ZoneConfig{
		Domain:      NewName("example.org"),
		ParentNSTTL: 172800, ChildNSTTL: 300,
		ChildAddrTTL: 120, Bailiwick: BailiwickMixed, ServiceTTL: 300,
	}
	recs := Advise(cfg, Scenario{})
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	d := EffectiveNSTTL(cfg, MeasuredPopulation())
	if len(d) < 2 {
		t.Errorf("effective NS TTL distribution = %v", d)
	}
	if EffectiveAddrTTL(cfg, MeasuredPopulation()).Min() == 0 {
		t.Errorf("addr distribution empty")
	}
	if EffectiveServiceTTL(cfg, MeasuredPopulation()).Mean() == 0 {
		t.Errorf("service distribution empty")
	}
	e := Estimate(d, DefaultWorkload())
	if e.HitRate <= 0 || e.MeanLatency <= 0 {
		t.Errorf("estimate = %+v", e)
	}
	if HitRate(3600, 0.01) <= HitRate(60, 0.01) {
		t.Errorf("hit-rate model broken")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("nope", QuickScale()); err == nil {
		t.Errorf("unknown experiment should error")
	}
}

func TestRunExperimentTable1(t *testing.T) {
	r, err := RunExperiment("table1", QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "Table 1" || !strings.Contains(r.Text, "a.nic.cl") {
		t.Errorf("report = %s", r.ID)
	}
}

func TestCrawlListsAndIDs(t *testing.T) {
	lists := CrawlLists()
	if len(lists) != 5 {
		t.Errorf("lists = %v", lists)
	}
	if len(ExperimentIDs) < 10 {
		t.Errorf("experiment IDs = %v", ExperimentIDs)
	}
	for _, id := range ExperimentIDs {
		found := false
		for _, known := range ExperimentIDs {
			if id == known {
				found = true
			}
		}
		if !found {
			t.Errorf("id %q not self-consistent", id)
		}
	}
}

func TestMessageFacade(t *testing.T) {
	m := &Message{
		Header:   Header{ID: 7, RD: true},
		Question: []Question{{Name: NewName("x.org"), Type: TypeA, Class: 1}},
	}
	wire, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Q().Name != NewName("x.org") || got.Header.ID != 7 {
		t.Errorf("round trip: %v", got)
	}
}

func TestVirtualClockFacade(t *testing.T) {
	c := NewVirtualClock()
	c.Advance(time.Minute)
	if c.Elapsed() != time.Minute {
		t.Errorf("elapsed = %v", c.Elapsed())
	}
	var _ Clock = c
	var _ Clock = simnet.WallClock{}
}

// stubTransport is a pooled real-socket client of the given kind for tests
// that play the stub resolver: 2 s timeout, closed with the test.
func stubTransport(t testing.TB, kind TransportKind) Transport {
	t.Helper()
	n, err := NewTransportNet(kind, TransportOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n.T
}

// loopbackNet is stubTransport's UDP as a ClientConfig.Net toward servers
// listening on port.
func loopbackNet(t testing.TB, port uint16) *TransportNet {
	return &TransportNet{T: stubTransport(t, TransportUDP), Port: port}
}
