package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/population"
	"dnsttl/internal/resolver"
	"dnsttl/internal/zone"
)

func uyBefore() ZoneConfig {
	return ZoneConfig{
		Domain:      dnswire.NewName("uy"),
		ParentNSTTL: 172800, ChildNSTTL: 300,
		ParentGlueTTL: 172800, ChildAddrTTL: 120,
		Bailiwick:  zone.BailiwickMixed,
		ServiceTTL: 300,
	}
}

func TestEffectiveNSTTL(t *testing.T) {
	d := EffectiveNSTTL(uyBefore(), population.DefaultMix())
	want := Distribution{
		{TTL: 300, Share: 0.925, Why: "child-centric (child NS TTL)"},
		{TTL: 172800, Share: 0.075, Why: "parent-centric (parent NS TTL)"},
	}
	if len(d) != len(want) {
		t.Fatalf("EffectiveNSTTL = %v, want %v", d, want)
	}
	for i := range want {
		if d[i].TTL != want[i].TTL || math.Abs(d[i].Share-want[i].Share) > 1e-9 || d[i].Why != want[i].Why {
			t.Errorf("share %d = %+v, want %+v", i, d[i], want[i])
		}
	}
}

// TestEffectiveNSTTLCapSplitsShares: a google.co-style child NS TTL splits
// the child-centric share by how each profile caps. The Unbound-like fifth
// stores at most a day; the Google-like 15 % clamps only what it reports, so
// its cache keeps the full TTL.
func TestEffectiveNSTTLCapSplitsShares(t *testing.T) {
	cfg := uyBefore()
	cfg.ChildNSTTL = 345600
	cfg.ParentNSTTL = 900
	got := map[uint32]float64{}
	for _, s := range EffectiveNSTTL(cfg, population.DefaultMix()) {
		got[s.TTL] += s.Share
	}
	want := map[uint32]float64{900: 0.075, 86400: 0.2, 345600: 0.725}
	if len(got) != len(want) {
		t.Fatalf("NS lifetimes = %v, want %v", got, want)
	}
	for ttl, share := range want {
		if math.Abs(got[ttl]-share) > 1e-9 {
			t.Errorf("share at %d s = %v, want %v", ttl, got[ttl], share)
		}
	}
}

// TestEffectiveTTLPerProfile runs each DefaultMix profile as a population of
// its own: every Effective*TTL must be the lifetime that profile's Policy
// gives. The zone is google.co-like (a long child NS TTL over a short parent
// one) with in-bailiwick servers whose address outlives the NS set, so caps,
// centricity and the NS/A coupling all show.
func TestEffectiveTTLPerProfile(t *testing.T) {
	cfg := ZoneConfig{
		ParentNSTTL: 900, ChildNSTTL: 345600,
		ParentGlueTTL: 600, ChildAddrTTL: 518400,
		Bailiwick: zone.BailiwickInOnly, ServiceTTL: 259200,
	}
	want := map[string]struct{ ns, addr, service uint32 }{
		"bind-like":    {345600, 345600, 259200}, // one-week storage cap: nothing over it
		"unbound-like": {86400, 86400, 86400},    // one-day storage cap
		"google-like":  {345600, 345600, 259200}, // serve-time cap: the cache keeps the full TTL
		"opendns-like": {900, 600, 259200},       // parent NS; glue re-learned with it
		"localroot":    {900, 600, 259200},       // parent-centric through the mirror
		"sticky":       {345600, 345600, 259200}, // stickiness is server choice, not lifetime
		"decoupled":    {345600, 518400, 259200}, // keeps its fresh in-bailiwick address
	}
	mix := population.DefaultMix()
	if len(mix) != len(want) {
		t.Fatalf("DefaultMix has %d profiles, the table %d", len(mix), len(want))
	}
	for _, p := range mix {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("profile %q is not in the table", p.Name)
			continue
		}
		one := population.Mix{p}
		for _, c := range []struct {
			kind string
			d    Distribution
			want uint32
		}{
			{"NS", EffectiveNSTTL(cfg, one), w.ns},
			{"address", EffectiveAddrTTL(cfg, one), w.addr},
			{"service", EffectiveServiceTTL(cfg, one), w.service},
		} {
			if len(c.d) != 1 || c.d[0].TTL != c.want || c.d[0].Share != 1 {
				t.Errorf("%s %s lifetime = %v, want 100%% at %d s", p.Name, c.kind, c.d, c.want)
			}
		}
	}
}

// TestEffectiveTTLInvalidMix pins what a mix population.Mix.Validate
// rejects yields: an empty distribution, never a guessed default.
func TestEffectiveTTLInvalidMix(t *testing.T) {
	profile := population.DefaultMix()[0]
	zero := profile
	zero.Weight = 0
	for name, mix := range map[string]population.Mix{
		"nil":         nil,
		"zero weight": {profile, zero},
		"NaN weight":  {{Name: "nan", Weight: math.NaN(), Policy: profile.Policy}},
	} {
		cfg := uyBefore()
		for kind, d := range map[string]Distribution{
			"NS":      EffectiveNSTTL(cfg, mix),
			"address": EffectiveAddrTTL(cfg, mix),
			"service": EffectiveServiceTTL(cfg, mix),
		} {
			if len(d) != 0 {
				t.Errorf("%s mix: %s distribution = %v, want empty", name, kind, d)
			}
		}
	}
}

func TestEffectiveAddrTTLBailiwick(t *testing.T) {
	cfg := ZoneConfig{
		ParentNSTTL: 172800, ChildNSTTL: 3600,
		ParentGlueTTL: 172800, ChildAddrTTL: 7200,
		Bailiwick: zone.BailiwickInOnly,
	}
	child := population.AllChildCentric()
	d := EffectiveAddrTTL(cfg, child)
	// §4.2: in-bailiwick → min(NS, addr) = 3600.
	if len(d) != 1 || d[0].TTL != 3600 {
		t.Fatalf("in-bailiwick effective addr TTL = %v, want 3600", d)
	}
	cfg.Bailiwick = zone.BailiwickOutOnly
	d = EffectiveAddrTTL(cfg, child)
	// §4.3: out-of-bailiwick → full 7200.
	if len(d) != 1 || d[0].TTL != 7200 {
		t.Fatalf("out-of-bailiwick effective addr TTL = %v, want 7200", d)
	}
	// Parent-centric share rides the glue.
	parent := population.AllChildCentric()
	parent[0].Policy.Centricity = resolver.ParentCentric
	d = EffectiveAddrTTL(cfg, parent)
	if len(d) != 1 || d[0].TTL != 172800 {
		t.Errorf("parent-centric addr TTL = %v, want 172800", d)
	}
	// A validating resolver never honors unsigned parent data.
	parent[0].Policy.Validate = true
	if d := EffectiveNSTTL(cfg, parent); len(d) != 1 || d[0].TTL != 3600 {
		t.Errorf("validating parent-centric NS TTL = %v, want the child's 3600", d)
	}
}

func TestDistributionHelpers(t *testing.T) {
	d := Distribution{{TTL: 100, Share: 0.5}, {TTL: 300, Share: 0.5}}
	if d.Mean() != 200 {
		t.Errorf("Mean = %v", d.Mean())
	}
	if d.Min() != 100 {
		t.Errorf("Min = %v", d.Min())
	}
	if (Distribution{}).Min() != 0 {
		t.Errorf("empty Min should be 0")
	}
	merged := Distribution{{TTL: 1, Share: 0.2}, {TTL: 1, Share: 0.3}, {TTL: 2, Share: 0.5}}.normalize()
	if len(merged) != 2 || merged[0].Share != 0.5 {
		t.Errorf("normalize = %v", merged)
	}
	if !strings.Contains(d.String(), "TTL 100") {
		t.Errorf("String = %q", d.String())
	}
}

func TestHitRateModel(t *testing.T) {
	if HitRate(0, 1) != 0 || HitRate(100, 0) != 0 {
		t.Errorf("degenerate hit rates should be 0")
	}
	// λT/(1+λT): λ=0.01, T=100 → 0.5.
	if got := HitRate(100, 0.01); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("HitRate = %v, want 0.5", got)
	}
	// Monotone in TTL.
	prev := 0.0
	for _, ttl := range []uint32{10, 60, 300, 3600, 86400} {
		h := HitRate(ttl, 0.02)
		if h <= prev {
			t.Fatalf("hit rate not increasing at %d", ttl)
		}
		prev = h
	}
	// The paper's observation: 1800-86400 s TTLs give ≈70 % hit rates
	// for typical demand.
	if h := HitRate(1800, 0.0015); h < 0.6 || h > 0.8 {
		t.Errorf("calibration: hit rate at 1800s = %.2f", h)
	}
}

func TestEstimate(t *testing.T) {
	w := DefaultWorkload()
	short := Estimate(Distribution{{TTL: 60, Share: 1}}, w)
	long := Estimate(Distribution{{TTL: 86400, Share: 1}}, w)
	if long.HitRate <= short.HitRate {
		t.Errorf("long TTL must hit more: %v vs %v", long.HitRate, short.HitRate)
	}
	if long.MeanLatency >= short.MeanLatency {
		t.Errorf("long TTL must be faster: %v vs %v", long.MeanLatency, short.MeanLatency)
	}
	if long.AuthQueriesPerHour >= short.AuthQueriesPerHour {
		t.Errorf("long TTL must cut load: %v vs %v", long.AuthQueriesPerHour, short.AuthQueriesPerHour)
	}
	// Latency is bounded by the two outcome latencies.
	if long.MeanLatency < w.CacheHitLatency || short.MeanLatency > w.MissLatency {
		t.Errorf("latencies out of bounds: %v, %v", long.MeanLatency, short.MeanLatency)
	}
}

func hasRule(recs []Recommendation, rule string) bool {
	for _, r := range recs {
		if r.Rule == rule {
			return true
		}
	}
	return false
}

func TestAdviseShortTTL(t *testing.T) {
	recs := Advise(uyBefore(), Scenario{})
	if !hasRule(recs, "short-ns-ttl") {
		t.Errorf("300 s NS TTL should trigger short-ns-ttl: %v", recs)
	}
	if !hasRule(recs, "parent-child-mismatch") {
		t.Errorf("172800 vs 300 should trigger mismatch: %v", recs)
	}
}

func TestAdviseZeroTTL(t *testing.T) {
	cfg := uyBefore()
	cfg.ServiceTTL = 0
	recs := Advise(cfg, Scenario{})
	if !hasRule(recs, "zero-ttl") {
		t.Errorf("zero TTL should warn: %v", recs)
	}
}

// TestAdviseOrderIsFixed: findings come out in one order, so repeated calls
// on a configuration with several zero TTLs print the same report.
func TestAdviseOrderIsFixed(t *testing.T) {
	render := func() string {
		var b strings.Builder
		for _, r := range Advise(ZoneConfig{}, Scenario{}) {
			b.WriteString(r.String() + "\n")
		}
		return b.String()
	}
	want := render()
	rest := want
	for _, name := range []string{"NS TTL is 0", "service TTL is 0", "server address TTL is 0"} {
		i := strings.Index(rest, name)
		if i < 0 {
			t.Fatalf("no %q warning in this order:\n%s", name, want)
		}
		rest = rest[i:]
	}
	for i := 0; i < 50; i++ {
		if got := render(); got != want {
			t.Fatalf("call %d ordered its findings differently:\n%s\nwant\n%s", i, got, want)
		}
	}
}

func TestAdviseInBailiwickAddr(t *testing.T) {
	cfg := ZoneConfig{
		ParentNSTTL: 3600, ChildNSTTL: 3600,
		ChildAddrTTL: 7200, Bailiwick: zone.BailiwickInOnly,
		ServiceTTL: 3600,
	}
	recs := Advise(cfg, Scenario{})
	if !hasRule(recs, "in-bailiwick-addr-exceeds-ns") {
		t.Errorf("A > NS in bailiwick should advise: %v", recs)
	}
	cfg.Bailiwick = zone.BailiwickOutOnly
	recs = Advise(cfg, Scenario{})
	if !hasRule(recs, "out-of-bailiwick-independent") {
		t.Errorf("out-of-bailiwick should note independence: %v", recs)
	}
	if hasRule(recs, "in-bailiwick-addr-exceeds-ns") {
		t.Errorf("out-of-bailiwick must not trigger the in-bailiwick rule")
	}
}

func TestAdviseAgility(t *testing.T) {
	cfg := ZoneConfig{
		ParentNSTTL: 172800, ChildNSTTL: 172800,
		ChildAddrTTL: 3600, Bailiwick: zone.BailiwickOutOnly,
		ServiceTTL: 86400,
	}
	recs := Advise(cfg, Scenario{DNSLoadBalancing: true})
	if !hasRule(recs, "agility-service-ttl") {
		t.Errorf("CDN scenario with 86400 service TTL should advise shorter: %v", recs)
	}
	// Short NS with agility need should not fire the short-ns warning…
	cfg.ChildNSTTL = 600
	cfg.ParentNSTTL = 600
	recs = Advise(cfg, Scenario{DNSLoadBalancing: true})
	if hasRule(recs, "short-ns-ttl") {
		t.Errorf("agile scenario must not warn about short NS: %v", recs)
	}
	// …but should point agility at service records instead.
	if !hasRule(recs, "agility-ns-still-long") {
		t.Errorf("agile scenario should still prefer long NS: %v", recs)
	}
}

func TestAdviseRegistryAndMetered(t *testing.T) {
	cfg := uyBefore()
	recs := Advise(cfg, Scenario{RegistryOperator: true, MeteredDNS: true})
	if !hasRule(recs, "registry-short-delegation") {
		t.Errorf("registry with 300 s NS should warn: %v", recs)
	}
	if !hasRule(recs, "metered-cost") {
		t.Errorf("metered scenario should estimate cost: %v", recs)
	}
}

func TestAdviseCleanConfig(t *testing.T) {
	cfg := ZoneConfig{
		ParentNSTTL: 86400, ChildNSTTL: 86400,
		ParentGlueTTL: 86400, ChildAddrTTL: 86400,
		Bailiwick: zone.BailiwickOutOnly, ServiceTTL: 14400,
	}
	recs := Advise(cfg, Scenario{})
	if len(recs) != 1 || recs[0].Rule != "ok" {
		t.Errorf("clean config should be ok: %v", recs)
	}
	if !strings.Contains(recs[0].String(), "INFO") {
		t.Errorf("String() = %q", recs[0].String())
	}
}

// TestQuickSharesSumToOne: every effective-TTL distribution is a probability
// distribution for arbitrary configurations and valid mixes.
func TestQuickSharesSumToOne(t *testing.T) {
	f := func(pNS, cNS, glue, addr uint16, bw uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mix := make(population.Mix, 1+r.Intn(8))
		for i := range mix {
			p := resolver.DefaultPolicy()
			p.Centricity = resolver.Centricity(r.Intn(2))
			p.RefreshGlueOnReferral = r.Intn(2) == 0
			p.TTLCap = []uint32{0, 300, 21599, 86400}[r.Intn(4)]
			p.CapAtServe = r.Intn(2) == 0
			p.Validate = r.Intn(4) == 0
			mix[i] = population.Profile{Weight: 1e-3 + r.Float64(), Policy: p}
		}
		cfg := ZoneConfig{
			ParentNSTTL: uint32(pNS), ChildNSTTL: uint32(cNS),
			ParentGlueTTL: uint32(glue), ChildAddrTTL: uint32(addr),
			Bailiwick:  zone.BailiwickClass(bw % 3),
			ServiceTTL: uint32(cNS),
		}
		for _, d := range []Distribution{
			EffectiveNSTTL(cfg, mix),
			EffectiveAddrTTL(cfg, mix),
			EffectiveServiceTTL(cfg, mix),
		} {
			sum := 0.0
			for _, s := range d {
				sum += s.Share
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickEstimateMonotone: longer service TTLs never hurt hit rate or
// mean latency under the model.
func TestQuickEstimateMonotone(t *testing.T) {
	f := func(t1, t2 uint16) bool {
		lo, hi := uint32(t1), uint32(t2)
		if lo > hi {
			lo, hi = hi, lo
		}
		w := DefaultWorkload()
		a := Estimate(Distribution{{TTL: lo, Share: 1}}, w)
		b := Estimate(Distribution{{TTL: hi, Share: 1}}, w)
		return b.HitRate >= a.HitRate && b.MeanLatency <= a.MeanLatency+time.Nanosecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
