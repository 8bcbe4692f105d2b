package farm

import (
	"strings"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/resolver"
)

// TestStatsRates pins the shared divide guard: every fleet rate derives
// from one snapshot through ratio(), and zero traffic means zero rates —
// not NaN — for all of them.
func TestStatsRates(t *testing.T) {
	var empty Stats
	if r := empty.Rates(); r.Hit != 0 || r.Stale != 0 || r.Timeout != 0 {
		t.Fatalf("zero-traffic rates = %+v, want all 0", r)
	}

	s := Stats{Total: FrontendStats{
		Client: 80, Hits: 50, Stale: 8, Coalesced: 20, Upstream: 200, Timeouts: 10,
	}}
	r := s.Rates()
	if want := float64(50+20) / float64(80+20); r.Hit != want {
		t.Fatalf("Hit = %v, want %v", r.Hit, want)
	}
	if want := 8.0 / 80.0; r.Stale != want {
		t.Fatalf("Stale = %v, want %v", r.Stale, want)
	}
	if want := 10.0 / 200.0; r.Timeout != want {
		t.Fatalf("Timeout = %v, want %v", r.Timeout, want)
	}
	if out := s.String(); !strings.Contains(out, "hit=0.700") {
		t.Fatalf("fleet table missing rate footer:\n%s", out)
	}
}

// TestFarmRegistryTelemetry checks the registry view: the farm.fe<i>.*
// counters are the numbers Stats reports, and each of the five resolver.*
// per-resolution counts is their sum over the frontends.
func TestFarmRegistryTelemetry(t *testing.T) {
	w := newWorld(t, []string{"a.example.org", "b.example.org"}, 300)
	reg := obs.NewRegistry(w.clock)
	f := w.farm(Config{
		Frontends: 2,
		Topology:  Shared,
		Registry:  reg,
	})

	for _, n := range []string{"a.example.org", "b.example.org", "a.example.org", "b.example.org"} {
		if _, err := f.Resolve(dnswire.NewName(n), dnswire.TypeA); err != nil {
			t.Fatalf("resolve %s: %v", n, err)
		}
	}

	st := f.Stats()
	snap := reg.Snapshot()
	if got, want := snap.Counters["farm.fe0.client"], st.PerFrontend[0].Client; got != want {
		t.Fatalf("farm.fe0.client = %d, registry and Stats disagree (want %d)", got, want)
	}
	if got, want := snap.Counters["farm.fe1.hits"], st.PerFrontend[1].Hits; got != want {
		t.Fatalf("farm.fe1.hits = %d, want %d", got, want)
	}
	for name, want := range map[string]uint64{
		resolver.MetricResolutions: st.Total.Client,
		resolver.MetricCacheHits:   st.Total.Hits,
		resolver.MetricStaleServed: st.Total.Stale,
		resolver.MetricUpstream:    st.Total.Upstream,
		resolver.MetricTimeouts:    st.Total.Timeouts,
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (published %v), want the fleet total %d", name, got, ok, want)
		}
	}
	if st.Total.Client != 4 || st.Total.Hits != 2 || st.Total.Upstream == 0 {
		t.Fatalf("fleet totals %+v, want 4 resolutions, 2 hits, some upstream", st.Total)
	}
}

// TestCountsAreCounters holds the counting rule on a farm and a UDP
// listener sharing one registry: the six cache counts and the listener's
// two are counters in the snapshot, the windowed history and the
// exposition, the cache's levels stay gauges, and a name has one owner.
func TestCountsAreCounters(t *testing.T) {
	w := newWorld(t, []string{"a.example.org"}, 300)
	reg := obs.NewRegistry(w.clock)
	f := w.farm(Config{Registry: reg})
	u := &authoritative.UDPServer{Handler: w.orgSrv, Registry: reg}
	if _, err := u.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	counts := []string{
		cache.MetricHits, cache.MetricMisses, cache.MetricEvictions, cache.MetricStaleHits,
		cache.MetricPrefetches, cache.MetricAdmissionRejects,
		authoritative.MetricUDPSaturated, authoritative.MetricUDPReadErrors,
	}
	snap := reg.Snapshot()
	for _, name := range counts {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("%s is not a counter", name)
		}
		if _, ok := snap.Gauges[name]; ok {
			t.Errorf("%s is a gauge", name)
		}
	}
	for _, name := range []string{cache.MetricEntries, cache.MetricBytes, authoritative.MetricUDPLoops} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("level %s is not a gauge", name)
		}
	}

	// A window spanning k cache hits reports k and k per second.
	name := dnswire.NewName("a.example.org")
	if _, err := f.Resolve(name, dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	hist := obs.NewHistory(reg, 0)
	hist.Sample()
	before := f.CacheStats().Hits
	for i := 0; i < 7; i++ {
		if _, err := f.Resolve(name, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	k := f.CacheStats().Hits - before
	w.clock.Advance(10 * time.Second)
	d, ok := hist.Window(time.Minute)
	if !ok {
		t.Fatal("no window")
	}
	if cd := d.Counters[cache.MetricHits]; k < 7 || cd.Delta != k || cd.Rate != float64(k)/10 {
		t.Errorf("%s over the window = %+v, want delta %d at %v/s", cache.MetricHits, cd, k, float64(k)/10)
	}

	var b strings.Builder
	if err := reg.WritePrometheusText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE cache_hits counter\n", "# TYPE listener_udp_read_errors counter\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if problems := obs.LintExposition(strings.NewReader(b.String())); len(problems) != 0 {
		t.Errorf("exposition lint: %v", problems)
	}

	defer func() {
		if recover() == nil {
			t.Error("Counter on a name a CounterFunc publishes did not panic")
		}
	}()
	reg.Counter(cache.MetricHits)
}

// TestFarmWithoutRegistry keeps the registry optional: a farm built with a
// zero Config still counts via standalone atomics.
func TestFarmWithoutRegistry(t *testing.T) {
	w := newWorld(t, []string{"a.example.org"}, 300)
	f := w.farm(Config{Frontends: 2})
	if _, err := f.Resolve(dnswire.NewName("a.example.org"), dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Total.Client != 1 {
		t.Fatalf("unregistered farm lost its counters: %+v", f.Stats())
	}
}
