package farm

import (
	"strings"
	"testing"

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

// TestFarmRegistryTelemetry checks the registry rebasing: the farm.fe<i>.*
// counters in the registry are the same numbers Stats reports, and the
// frontends share one resolver metric set.
func TestFarmRegistryTelemetry(t *testing.T) {
	w := newWorld(t, []string{"a.example.org", "b.example.org"}, 300)
	reg := obs.NewRegistry(w.clock)
	f := w.farm(Config{
		Frontends: 2,
		Topology:  Shared,
		Placement: PlaceRoundRobin,
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
	if got := snap.Counters[resolver.MetricResolutions]; got != st.Total.Client {
		t.Fatalf("%s = %d, want fleet total %d", resolver.MetricResolutions, got, st.Total.Client)
	}
	if got := snap.Counters[resolver.MetricCacheHits]; got != st.Total.Hits {
		t.Fatalf("%s = %d, want fleet hits %d", resolver.MetricCacheHits, got, st.Total.Hits)
	}
	// The cache gauges bridge the shared store's live stats.
	cs := f.CacheStats()
	if got := snap.Gauges["cache.hits"]; got != float64(cs.Hits) {
		t.Fatalf("cache.hits gauge = %v, want %d", got, cs.Hits)
	}
	if got := snap.Gauges["cache.entries"]; got != float64(cs.Entries) {
		t.Fatalf("cache.entries gauge = %v, want %d", got, cs.Entries)
	}
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
