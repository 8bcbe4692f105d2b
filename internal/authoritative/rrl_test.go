package authoritative

import (
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/bucket"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// rawQuery sends one UDP query and returns the raw response bytes (nil
// when RRL dropped it).
func rawQuery(t *testing.T, s *Server, name string, from netip.Addr) []byte {
	t.Helper()
	q := dnswire.NewIterativeQuery(7, dnswire.NewName(name), dnswire.TypeA)
	wire, err := dnswire.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	return s.ServeDNS(wire, from)
}

func TestParseRRLConfig(t *testing.T) {
	cfg, err := ParseRRLConfig("default")
	if err != nil || cfg != DefaultRRLConfig() {
		t.Fatalf("default parse: %+v, %v", cfg, err)
	}
	cfg, err = ParseRRLConfig("rps=2,slip=3")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RPS != 2 || cfg.Slip != 3 || cfg.Burst != 15 {
		t.Fatalf("partial override: %+v", cfg)
	}
	for _, bad := range []string{"rps", "rps=zero", "warp=1", "rps=0", "prefix4=99"} {
		if _, err := ParseRRLConfig(bad); err == nil {
			t.Fatalf("ParseRRLConfig(%q) should fail", bad)
		}
	}
}

// badRRLConfigs are flag values that parse as numbers but make no limiter:
// a NaN rate or burst passes every response after the first refill, an
// infinite burst never empties, a negative slip drops every limited
// response, and slip and the prefixes are integers, not truncated floats.
// FuzzParseRRLConfig seeds its corpus from them too.
var badRRLConfigs = []string{
	"rps=NaN", "burst=NaN", "burst=Inf", "slip=-3", "slip=1e300", "slip=2.7", "prefix4=24.9",
}

func TestParseRRLConfigRejectsNonsense(t *testing.T) {
	for _, in := range badRRLConfigs {
		if cfg, err := ParseRRLConfig(in); err == nil {
			t.Errorf("ParseRRLConfig(%q) = %+v, want an error", in, cfg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("EnableRRL with a NaN rate did not panic")
		}
	}()
	cfg := DefaultRRLConfig()
	cfg.RPS = math.NaN()
	testServer(t).EnableRRL(cfg)
}

func TestRRLWaterTortureSharesErrorBand(t *testing.T) {
	s := testServer(t)
	clk := s.Clock.(*simnet.VirtualClock)
	reg := obs.NewRegistry(clk)
	s.Instrument(reg)
	s.EnableRRL(RRLConfig{RPS: 1, Burst: 3, Slip: 0, Prefix4: 24, Prefix6: 56})

	attacker := netip.MustParseAddr("198.51.100.9")
	// Random-subdomain flood: every qname unique, every response NXDomain.
	// They must share the zone-origin error band, so only the burst leaks.
	sent := 0
	for i := 0; i < 20; i++ {
		if rawQuery(t, s, fmt.Sprintf("w%d.example.org", i), attacker) != nil {
			sent++
		}
	}
	if sent != 3 {
		t.Fatalf("flood responses sent = %d, want burst of 3", sent)
	}
	if got := reg.Snapshot().Counters[MetricRRLDropped]; got != 17 {
		t.Fatalf("auth.rrl_dropped = %d, want 17", got)
	}

	// A client in a different /24 is a different bucket and still gets
	// its positive answer (positive answers band per-qname anyway).
	honest := netip.MustParseAddr("203.0.113.7")
	if rawQuery(t, s, "www.example.org", honest) == nil {
		t.Fatal("honest client in another prefix was dropped")
	}

	// Refill: a second later the attacker's band earns one more token.
	clk.Advance(time.Second)
	sent = 0
	for i := 20; i < 25; i++ {
		if rawQuery(t, s, fmt.Sprintf("w%d.example.org", i), attacker) != nil {
			sent++
		}
	}
	if sent != 1 {
		t.Fatalf("post-refill responses = %d, want 1", sent)
	}
}

func TestRRLSlipSendsTruncated(t *testing.T) {
	s := testServer(t)
	s.EnableRRL(RRLConfig{RPS: 1, Burst: 1, Slip: 2, Prefix4: 24, Prefix6: 56})
	from := netip.MustParseAddr("198.51.100.9")

	if rawQuery(t, s, "nope1.example.org", from) == nil {
		t.Fatal("burst response dropped")
	}
	// Limited responses now alternate drop, slip, drop, slip...
	var slips, drops int
	for i := 0; i < 6; i++ {
		wire := rawQuery(t, s, fmt.Sprintf("nope%d.example.org", i+2), from)
		if wire == nil {
			drops++
			continue
		}
		resp, err := dnswire.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Header.TC {
			t.Fatal("slipped response must be truncated")
		}
		if len(resp.Answer) != 0 || len(resp.Authority) != 0 || len(resp.Additional) != 0 {
			t.Fatal("slipped response must carry no records")
		}
		if resp.Header.RCode != dnswire.RCodeNXDomain {
			t.Fatalf("slipped rcode = %v, want NXDomain preserved", resp.Header.RCode)
		}
		slips++
	}
	if slips != 3 || drops != 3 {
		t.Fatalf("slips = %d drops = %d, want 3/3", slips, drops)
	}
}

func TestRRLExemptsTCP(t *testing.T) {
	s := testServer(t)
	s.EnableRRL(RRLConfig{RPS: 1, Burst: 1, Slip: 0, Prefix4: 24, Prefix6: 56})
	from := netip.MustParseAddr("198.51.100.9")

	// Exhaust the UDP bucket.
	rawQuery(t, s, "x1.example.org", from)
	if rawQuery(t, s, "x2.example.org", from) != nil {
		t.Fatal("UDP flood should be limited")
	}
	// TCP keeps answering: the handshake already authenticated the source.
	q := dnswire.NewIterativeQuery(9, dnswire.NewName("x3.example.org"), dnswire.TypeA)
	wire, err := dnswire.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if s.Handler(nil, true).ServeDNS(wire, from) == nil {
			t.Fatal("TCP response must never be rate limited")
		}
	}
}

func TestRRLPositiveBandIsPerQName(t *testing.T) {
	s := testServer(t)
	s.EnableRRL(RRLConfig{RPS: 1, Burst: 2, Slip: 0, Prefix4: 24, Prefix6: 56})
	from := netip.MustParseAddr("198.51.100.9")

	// Exhaust the bucket for one positive qname...
	for i := 0; i < 3; i++ {
		rawQuery(t, s, "www.example.org", from)
	}
	// ...the nameserver's own A record is a different band and still flows.
	if rawQuery(t, s, "ns1.example.org", from) == nil {
		t.Fatal("distinct positive qname should have its own bucket")
	}
}

// FuzzParseRRLConfig: parsing the -rrl flag never panics, and a config it
// accepts passes the shared bucket check, so EnableRRL takes it.
func FuzzParseRRLConfig(f *testing.F) {
	for _, s := range append([]string{"", "default", "rps=2,slip=3", "prefix6=129", "rps=1e-300,burst=1e300"}, badRRLConfigs...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseRRLConfig(s)
		if err != nil {
			return
		}
		if err := bucket.Check(cfg.RPS, cfg.Burst, cfg.Prefix4, cfg.Prefix6); err != nil || cfg.Slip < 0 {
			t.Fatalf("%q: accepted %+v (bucket check: %v)", s, cfg, err)
		}
		NewServer(dnswire.NewName("ns.example"), simnet.NewVirtualClock()).EnableRRL(cfg)
	})
}
