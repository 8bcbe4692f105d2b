package atlas

import (
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/latency"
	"dnsttl/internal/population"
	"dnsttl/internal/race"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/stats"
	"dnsttl/internal/zone"
)

// miniWorld: root + example.org, both on one simnet.
func miniWorld(t *testing.T) (*simnet.Network, *simnet.VirtualClock, *latency.Topology, *population.Builder, *authoritative.Server) {
	t.Helper()
	clock := simnet.NewVirtualClock()
	net := simnet.NewNetwork(11)
	topo := latency.NewTopology()
	net.LatencyFor = topo.LatencyFor

	rootAddr := netip.MustParseAddr("198.41.0.4")
	orgAddr := netip.MustParseAddr("192.0.2.10")
	topo.Place(rootAddr, latency.NA)
	topo.Place(orgAddr, latency.EU)

	root := zone.New(dnswire.Root)
	root.MustAdd(
		dnswire.NewSOA(".", 86400, "a.root-servers.net.", "x.y.", 1, 1, 1, 1, 86400),
		dnswire.NewNS(".", 518400, "a.root-servers.net"),
		dnswire.NewA("a.root-servers.net", 518400, "198.41.0.4"),
		dnswire.NewNS("example.org", 172800, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 172800, "192.0.2.10"),
	)
	org := zone.New(dnswire.NewName("example.org"))
	org.MustAdd(
		dnswire.NewSOA("example.org", 3600, "ns1.example.org", "x.example.org", 1, 1, 1, 1, 60),
		dnswire.NewNS("example.org", 300, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 300, "192.0.2.10"),
		dnswire.NewA("www.example.org", 600, "192.0.2.80"),
		dnswire.NewA("*.u.example.org", 60, "192.0.2.81"),
	)
	rootSrv := authoritative.NewServer(dnswire.NewName("a.root-servers.net"), clock)
	rootSrv.AddZone(root)
	net.Attach(rootAddr, rootSrv)
	orgSrv := authoritative.NewServer(dnswire.NewName("ns1.example.org"), clock)
	orgSrv.AddZone(org)
	net.Attach(orgAddr, orgSrv)

	b := &population.Builder{Net: net, Clock: clock, RootHints: []netip.Addr{rootAddr}, LocalRootZone: root}
	return net, clock, topo, b, orgSrv
}

func TestFleetConstruction(t *testing.T) {
	_, _, topo, b, _ := miniWorld(t)
	f := NewFleet(FleetConfig{Probes: 400, MultiVPFrac: 0.5, SharedFrac: 0.8, Seed: 1}, b, topo)
	if len(f.VPs) < 400 || len(f.VPs) > 800 {
		t.Fatalf("VPs = %d", len(f.VPs))
	}
	multi := len(f.VPs) - 400
	if multi < 120 || multi > 280 {
		t.Errorf("multi-VP probes = %d, want ≈200", multi)
	}
	regions := map[latency.Region]int{}
	profiles := map[string]int{}
	sharedCount := 0
	resolvers := map[*VP]bool{}
	_ = resolvers
	for _, vp := range f.VPs {
		regions[vp.Region]++
		profiles[vp.Profile]++
		if vp.Shared {
			sharedCount++
		}
		if vp.Resolver == nil || vp.Stub == nil {
			t.Fatalf("VP %d incomplete", vp.ID)
		}
	}
	if float64(regions[latency.EU])/float64(len(f.VPs)) < 0.4 {
		t.Errorf("EU share = %d/%d, want the Atlas European skew", regions[latency.EU], len(f.VPs))
	}
	if profiles["bind-like"] == 0 || profiles["google-like"] == 0 {
		t.Errorf("profiles = %v", profiles)
	}
	if sharedCount == 0 {
		t.Errorf("no shared-resolver VPs despite SharedFrac=0.8")
	}
}

func TestFleetDeterminism(t *testing.T) {
	build := func() []string {
		_, _, topo, b, _ := miniWorld(t)
		f := NewFleet(FleetConfig{Probes: 50, Seed: 7}, b, topo)
		var out []string
		for _, vp := range f.VPs {
			out = append(out, vp.Profile+vp.Region.String())
		}
		return out
	}
	a, bb := build(), build()
	if len(a) != len(bb) {
		t.Fatalf("fleet sizes differ")
	}
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("fleet differs at %d: %s vs %s", i, a[i], bb[i])
		}
	}
}

func TestRunCampaign(t *testing.T) {
	_, clock, topo, b, orgSrv := miniWorld(t)
	f := NewFleet(FleetConfig{Probes: 60, Seed: 3}, b, topo)
	sched := Schedule{
		Name:     dnswire.NewName("www.example.org"),
		Type:     dnswire.TypeA,
		Interval: 600 * time.Second,
		Rounds:   3,
	}
	resps := f.Run(clock, sched)
	if len(resps) != len(f.VPs)*3 {
		t.Fatalf("responses = %d, want %d", len(resps), len(f.VPs)*3)
	}
	valid := 0
	hits := 0
	for _, r := range resps {
		if r.Valid() {
			valid++
			if r.TTL == 0 || r.TTL > 600 {
				t.Fatalf("TTL = %d", r.TTL)
			}
			if r.RTT <= 0 {
				t.Fatalf("RTT = %v", r.RTT)
			}
		}
		if r.CacheHit {
			hits++
		}
	}
	if valid != len(resps) {
		t.Errorf("valid = %d of %d", valid, len(resps))
	}
	// TTL 600 = interval: rounds 1-2 may hit the cache (TTL not yet
	// expired only within the same round's timestamp)... with a 600 s TTL
	// and 600 s interval, round 2 refetches; round 1 never cached. So
	// expect zero... unless shared resolvers serve several VPs per round.
	if hits == 0 {
		t.Logf("no cache hits (fine for unshared fleet)")
	}
	// Virtual time advanced.
	if clock.Elapsed() != 3*600*time.Second {
		t.Errorf("elapsed = %v", clock.Elapsed())
	}
	if orgSrv.QueryCount() == 0 {
		t.Errorf("authoritative never queried")
	}
}

func TestPerProbeNames(t *testing.T) {
	_, clock, topo, b, _ := miniWorld(t)
	f := NewFleet(FleetConfig{Probes: 10, Seed: 3}, b, topo)
	sched := Schedule{
		Name:     dnswire.NewName("PROBEID.u.example.org"),
		Type:     dnswire.TypeA,
		Interval: time.Minute,
		Rounds:   1,
		PerProbe: true,
	}
	if got := sched.queryName(42); got != dnswire.NewName("p42.u.example.org") {
		t.Fatalf("queryName = %s", got)
	}
	resps := f.Run(clock, sched)
	for _, r := range resps {
		if !r.Valid() {
			t.Fatalf("probe %d: %v (rcode %s)", r.ProbeID, r.Err, r.RCode)
		}
	}
}

func TestOnRoundHook(t *testing.T) {
	_, clock, topo, b, _ := miniWorld(t)
	f := NewFleet(FleetConfig{Probes: 5, Seed: 3}, b, topo)
	var rounds []int
	f.Run(clock, Schedule{
		Name: dnswire.NewName("www.example.org"), Type: dnswire.TypeA,
		Interval: time.Second, Rounds: 3,
		OnRound: func(r int) { rounds = append(rounds, r) },
	})
	if len(rounds) != 3 || rounds[0] != 0 || rounds[2] != 2 {
		t.Errorf("rounds = %v", rounds)
	}
}

func TestCacheHitLatencyMuchLower(t *testing.T) {
	_, clock, topo, b, _ := miniWorld(t)
	// One probe, one resolver, long-TTL name queried twice quickly.
	f := NewFleet(FleetConfig{Probes: 1, Seed: 5, Mix: population.AllChildCentric()}, b, topo)
	sched := Schedule{Name: dnswire.NewName("www.example.org"), Type: dnswire.TypeA,
		Interval: 10 * time.Second, Rounds: 2}
	resps := f.Run(clock, sched)
	if len(resps) != 2 {
		t.Fatal("want 2 responses")
	}
	if resps[1].RTT >= resps[0].RTT {
		t.Errorf("cache hit (%v) should beat full resolution (%v)", resps[1].RTT, resps[0].RTT)
	}
	if !resps[1].CacheHit {
		t.Errorf("second response should be a cache hit")
	}
}

func TestJitterSpreadsProbes(t *testing.T) {
	_, clock, topo, b, _ := miniWorld(t)
	f := NewFleet(FleetConfig{Probes: 40, Seed: 9}, b, topo)
	resps := f.Run(clock, Schedule{
		Name: dnswire.NewName("www.example.org"), Type: dnswire.TypeA,
		Interval: 600 * time.Second, Rounds: 2, Jitter: true,
	})
	times := map[int64]bool{}
	for _, r := range resps {
		if r.Round == 0 {
			times[r.Time.Unix()] = true
			if r.Time.Before(simnet.Epoch) || !r.Time.Before(simnet.Epoch.Add(600*time.Second)) {
				t.Fatalf("round-0 probe at %v outside its interval", r.Time)
			}
		}
	}
	if len(times) < 10 {
		t.Errorf("jitter produced only %d distinct probe times", len(times))
	}
	// The clock still lands exactly on the round boundary afterwards.
	if clock.Elapsed() != 2*600*time.Second {
		t.Errorf("elapsed = %v", clock.Elapsed())
	}
}

func TestFarmSharedVPs(t *testing.T) {
	net, clock, topo, b, orgSrv := miniWorld(t)
	f := NewFleet(FleetConfig{Probes: 300, SharedFrac: 1.0, Seed: 12}, b, topo)
	sharedVPs := 0
	for _, vp := range f.VPs {
		if vp.Shared {
			sharedVPs++
		}
	}
	if sharedVPs == 0 {
		t.Skip("no public-profile VPs drawn at this seed")
	}
	resps := f.Run(clock, Schedule{
		Name: dnswire.NewName("www.example.org"), Type: dnswire.TypeA,
		Interval: 60 * time.Second, Rounds: 2, Jitter: true,
	})
	valid := 0
	for _, r := range resps {
		if r.Valid() {
			valid++
		}
	}
	if valid < len(resps)*9/10 {
		t.Errorf("farm fleet: %d/%d valid", valid, len(resps))
	}
	if orgSrv.QueryCount() == 0 {
		t.Errorf("no authoritative queries")
	}

	// Placement: every frontend of a shared instance sits in its VPs'
	// region. An unplaced address falls to Topology.Default, so point that
	// somewhere else and watch who sources the upstream queries of
	// uncacheable per-probe names.
	recursives := netip.MustParsePrefix("172.16.0.0/12") // where NewFleet numbers resolvers
	var cur *VP
	misplaced := map[netip.Addr]latency.Region{}
	net.Tap = func(ev simnet.TapEvent) {
		if recursives.Contains(ev.Src) && topo.RegionOf(ev.Src) != cur.Region {
			misplaced[ev.Src] = cur.Region
		}
	}
	uniq := Schedule{Name: dnswire.NewName("PROBEID.u.example.org"), Type: dnswire.TypeA, PerProbe: true}
	for round := 0; round < 8; round++ {
		for _, vp := range f.VPs {
			if !vp.Shared {
				continue
			}
			cur = vp
			topo.Default = (vp.Region + 1) % latency.Region(len(latency.AllRegions))
			if r := f.probeOnce(clock, vp, round, uniq.queryName(vp.ProbeID), uniq.Type); !r.Valid() {
				t.Fatalf("VP %d: %v", vp.ID, r.Err)
			}
		}
		clock.Advance(61 * time.Second) // the wildcard's TTL is 60 s
	}
	if len(misplaced) > 0 {
		t.Errorf("shared-resolver frontends outside their VPs' region (addr → VP region): %v", misplaced)
	}
}

// TestSharedVPsReportResolverWork pins what a probe behind a shared public
// resolver measures: the answering frontend's own Result — cache hits, the
// upstream latency of a miss, the authoritative that answered, staleness —
// and not just the hop to the service.
func TestSharedVPsReportResolverWork(t *testing.T) {
	_, clock, topo, b, _ := miniWorld(t)
	orgAddr := netip.MustParseAddr("192.0.2.10")
	f := NewFleet(FleetConfig{Probes: 300, SharedFrac: 1, Seed: 12}, b, topo)
	// Three rounds a minute apart: all inside the record's 600 s TTL.
	var hits, misses stats.Sample
	for _, r := range f.Run(clock, Schedule{
		Name: dnswire.NewName("www.example.org"), Type: dnswire.TypeA,
		Interval: 60 * time.Second, Rounds: 3, Jitter: true,
	}) {
		if !f.VPs[r.VPID].Shared || !r.Valid() {
			continue
		}
		want := orgAddr
		if r.CacheHit {
			want = netip.Addr{}
			hits.AddDuration(r.RTT)
		} else {
			misses.AddDuration(r.RTT)
		}
		if r.FinalServer != want {
			t.Errorf("VP %d hit=%v: FinalServer = %v, want %v", r.VPID, r.CacheHit, r.FinalServer, want)
		}
	}
	if hits.Len() == 0 || misses.Len() == 0 {
		t.Errorf("shared VPs inside the TTL: %d hits, %d misses, want both", hits.Len(), misses.Len())
	} else if misses.Median() <= hits.Median() {
		t.Errorf("median RTT: misses %.1f ms <= hits %.1f ms; a miss carries the resolver's upstream work",
			misses.Median(), hits.Median())
	}

	// Serve-stale crosses too: warm a stale-serving public service, take
	// the authoritative away, let the record expire.
	net, clock, topo, b, _ := miniWorld(t)
	pol := resolver.DefaultPolicy()
	pol.ServeStale = true
	f = NewFleet(FleetConfig{Probes: 40, SharedFrac: 1, Seed: 12,
		Mix: population.Mix{{Name: "google-like", Weight: 1, Policy: pol}}}, b, topo)
	sched := Schedule{Name: dnswire.NewName("www.example.org"), Type: dnswire.TypeA,
		Interval: 601 * time.Second, Rounds: 1}
	f.Run(clock, sched)
	if err := net.SetDown(orgAddr, true); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, r := range f.Run(clock, sched) {
		if r.Stale {
			stale++
		}
	}
	if stale == 0 {
		t.Errorf("no stale answers from %d shared VPs during the outage", len(f.VPs))
	}
}

// TestProbeRoundAllocs pins the per-probe cost of a warm fleet's round:
// every probe is a cache hit written into the fleet's scratch Result, and
// nothing else a probe does allocates — the latency draws, the pooled farm
// query, the answer kept as its RData. What is left is the run's own
// slices, shared by its VPs.
func TestProbeRoundAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts of pooled paths are not stable under -race")
	}
	_, clock, topo, b, _ := miniWorld(t)
	f := NewFleet(FleetConfig{Probes: 200, MultiVPFrac: 0.2, SharedFrac: 0.5, Seed: 3}, b, topo)
	// Forty warm-up rounds reach every frontend of every shared farm; the
	// record's 600 s TTL outlives warm-up and measurement.
	warm := Schedule{Name: dnswire.NewName("www.example.org"), Type: dnswire.TypeA,
		Interval: time.Second, Rounds: 40, Jitter: true}
	for _, r := range f.Run(clock, warm) {
		if !r.Valid() {
			t.Fatalf("warm-up probe: %v", r.Err)
		}
	}
	sched := warm
	sched.Interval, sched.Rounds = 10*time.Second, 1
	perProbe := testing.AllocsPerRun(5, func() { f.Run(clock, sched) }) / float64(len(f.VPs))
	if perProbe > 0.05 {
		t.Errorf("a warm probe costs %.3f allocs, budget 0.05", perProbe)
	}
}
