package compile

import (
	"math"
	"testing"
	"time"

	"dnsttl/internal/cache"
	"dnsttl/internal/population"
)

func flatSpec(users float64) Spec {
	flat := make([]float64, 24)
	for i := range flat {
		flat[i] = 1
	}
	return Spec{
		Users:             users,
		QueriesPerUserDay: 100,
		Names:             100000,
		ZipfS:             1.0,
		TTL:               300,
		Diurnal:           flat,
	}
}

func TestCompileRejectsBadSpecs(t *testing.T) {
	base := flatSpec(1e6)
	bad := []func(*Spec){
		func(s *Spec) { s.Users = 0 },
		func(s *Spec) { s.QueriesPerUserDay = -1 },
		func(s *Spec) { s.Names = 0 },
		func(s *Spec) { s.Mix = population.Mix{{Name: "x", Weight: -1}} },
		func(s *Spec) { s.Mix = population.Mix{} },
		func(s *Spec) { s.Regions = []RegionShare{{Name: "EU", Share: 0}} },
		func(s *Spec) { s.Regions = []RegionShare{{Name: "EU", Share: math.NaN()}} },
		func(s *Spec) { s.Diurnal = []float64{1, 2, 3} },
		func(s *Spec) { s.Events = []Event{{AtHours: 99, Kind: "purge"}} },
		func(s *Spec) { s.Events = []Event{{AtHours: 1, Kind: "meteor"}} },
		func(s *Spec) { s.Events = []Event{{AtHours: 1, Kind: "outage", DurHours: -2}} },
		func(s *Spec) { s.Policy = cache.EvictionPolicy(9) },
		func(s *Spec) { s.PrefetchFrac = 1.7 },
		func(s *Spec) { s.PrefetchFrac = -0.1 },
		func(s *Spec) { s.PrefetchFrac = math.NaN() },
		func(s *Spec) { s.MaxBytes, s.BaseBytes = 1000, 64<<10 },
		func(s *Spec) { s.MaxBytes, s.BaseBytes = 64<<10, 64<<10 },
		func(s *Spec) { s.ZipfS = -1 },
		func(s *Spec) { s.ZipfS = math.NaN() },
	}
	for i, mut := range bad {
		s := base
		mut(&s)
		if _, err := Compile(s); err == nil {
			t.Errorf("bad spec %d compiled without error", i)
		}
	}
	if _, err := Compile(base); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestCompileLowering(t *testing.T) {
	s := flatSpec(1e6)
	s.Regions = []RegionShare{
		{Name: "EU", Share: 0.7},
		{Name: "NA", Share: 0.3, PhaseHours: -6},
	}
	p, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	// Groups = profiles × regions; users conserved.
	wantGroups := len(population.DefaultMix()) * 2
	if len(p.Groups) != wantGroups {
		t.Errorf("got %d groups, want %d", len(p.Groups), wantGroups)
	}
	users := 0.0
	for _, g := range p.Groups {
		users += g.Users
		if g.Resolvers < 1 || g.BaseLambda <= 0 {
			t.Errorf("group %s/%s: resolvers %v lambda %v", g.Profile, g.Region, g.Resolvers, g.BaseLambda)
		}
		// Per-cell rate respects the cell size: users/resolvers ≤ cap.
		if g.Users/g.Resolvers > 50000+1e-6 {
			t.Errorf("group %s/%s oversizes cells: %v users/cell", g.Profile, g.Region, g.Users/g.Resolvers)
		}
	}
	if math.Abs(users-1e6) > 1 {
		t.Errorf("users not conserved: %v", users)
	}
	// Hourly segments with no events.
	if len(p.Segments) != 24 {
		t.Errorf("got %d segments, want 24", len(p.Segments))
	}
	// Compiled state is compressed: lines ≪ names × groups.
	if p.Lines() >= s.Names {
		t.Errorf("compiled %d lines for %d names — banding ineffective", p.Lines(), s.Names)
	}
}

// TestRunMatchesClosedForm: with a flat diurnal curve, no cache bound and
// no events, the engine must land on the banded Jung closed form exactly
// (the occupancy ODE's only deviation is the cold start, which the
// horizon amortizes).
func TestRunMatchesClosedForm(t *testing.T) {
	s := flatSpec(2e6)
	s.Hours = 24 * 7
	res, err := CompileAndRun(s)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := Compile(s)
	want := 0.0
	for _, g := range p.Groups {
		gw := 0.0
		for _, b := range p.Bands {
			gw += b.Mass * SteadyHit(g.BaseLambda*b.PerName(), g.Lifetime)
		}
		want += gw * g.Users
	}
	want /= s.Users
	if got := res.HitRate(); math.Abs(got-want) > 0.003 {
		t.Errorf("engine hit %.5f vs closed form %.5f", got, want)
	}
	// Conservation: answered queries split into hits and misses.
	if d := res.Queries - res.Hits - res.Misses - res.Failed; math.Abs(d) > res.Queries*1e-9 {
		t.Errorf("query conservation violated by %v", d)
	}
	if res.Failed != 0 {
		t.Errorf("no outage but %v failed queries", res.Failed)
	}
	// Total demand ≈ users × rate × horizon.
	wantQ := s.Users * s.QueriesPerUserDay / 86400 * res.VirtualSeconds
	if math.Abs(res.Queries-wantQ) > wantQ*1e-6 {
		t.Errorf("total queries %v, want %v", res.Queries, wantQ)
	}
}

func TestRunDeterministic(t *testing.T) {
	s := flatSpec(1e6)
	s.Diurnal = nil // default two-peak curve
	a, err := CompileAndRun(s)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := CompileAndRun(s)
	if a.Hits != b.Hits || a.Upstream != b.Upstream || a.PeakUpstreamQPS != b.PeakUpstreamQPS {
		t.Errorf("engine not deterministic: %v vs %v", a, b)
	}
}

func TestRunPurgeCostsHits(t *testing.T) {
	s := flatSpec(1e6)
	base, err := CompileAndRun(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Events = []Event{{AtHours: 6, Kind: "purge"}, {AtHours: 12, Kind: "purge"}}
	purged, err := CompileAndRun(s)
	if err != nil {
		t.Fatal(err)
	}
	if purged.Hits >= base.Hits {
		t.Errorf("purges should cost hits: %v vs %v", purged.Hits, base.Hits)
	}
	if purged.Upstream <= base.Upstream {
		t.Errorf("purges should cost upstream refills: %v vs %v", purged.Upstream, base.Upstream)
	}
	if purged.Queries != base.Queries {
		t.Errorf("purges must not change demand: %v vs %v", purged.Queries, base.Queries)
	}
}

func TestRunOutage(t *testing.T) {
	s := flatSpec(1e6)
	s.Events = []Event{{AtHours: 10, Kind: "outage", DurHours: 2}}
	res, err := CompileAndRun(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed <= 0 {
		t.Error("outage produced no failed queries")
	}
	base, _ := CompileAndRun(flatSpec(1e6))
	// Cached entries still serve during the outage: failures are a strict
	// subset of the outage window's demand.
	outageDemand := s.Users * s.QueriesPerUserDay / 86400 * 2 * 3600
	if res.Failed >= outageDemand {
		t.Errorf("all %v outage queries failed — cache served none", res.Failed)
	}
	if res.Upstream >= base.Upstream {
		t.Errorf("outage should reduce upstream: %v vs %v", res.Upstream, base.Upstream)
	}
}

// TestRunPlanetScaleBudget pins the acceptance bound: a 10M-user day
// compiles and runs well under 30s, and the compiled state is a few
// thousand lines, not tens of millions of client objects.
func TestRunPlanetScaleBudget(t *testing.T) {
	s := flatSpec(1e7)
	s.Diurnal = nil
	s.MaxBytes = 4 << 20
	s.Policy = cache.EvictLRU
	start := time.Now()
	res, err := CompileAndRun(s)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 30*time.Second {
		t.Errorf("10M-user day took %v, budget 30s", elapsed)
	}
	if res.Lines > 200000 {
		t.Errorf("compiled state %d lines — not aggregate", res.Lines)
	}
	if res.HitRate() <= 0 || res.HitRate() >= 1 {
		t.Errorf("implausible hit rate %v", res.HitRate())
	}
	if res.PeakUpstreamQPS <= 0 {
		t.Error("no peak upstream recorded")
	}
	t.Logf("10M-user day in %v: %v", elapsed, res)
}

func TestDefaultDiurnalMeanOne(t *testing.T) {
	d := DefaultDiurnal()
	sum := 0.0
	for _, v := range d {
		if v <= 0 {
			t.Fatalf("non-positive diurnal multiplier %v", v)
		}
		sum += v
	}
	if math.Abs(sum/24-1) > 1e-12 {
		t.Errorf("diurnal mean %v, want 1", sum/24)
	}
}

// referenceRun is the engine without a memo: every (segment, group) use
// solves its steady state afresh with solveCache, and the arithmetic is
// written out as the model states it (Band methods, math.Min). Run must
// match it bit for bit, so it is also the check that recycling a solution
// buffer never hands a group another key's rates.
func referenceRun(p *Program) *Result {
	res := &Result{Users: p.Spec.Users, Lines: p.Lines()}
	occ := make([][]float64, len(p.Groups))
	for gi, g := range p.Groups {
		occ[gi] = make([]float64, len(p.Bands))
		res.Resolvers += g.Resolvers
		res.Groups = append(res.Groups, GroupResult{Profile: g.Profile, Region: g.Region})
	}
	for _, seg := range p.Segments {
		if seg.PurgeAtStart {
			for gi := range occ {
				clear(occ[gi])
			}
		}
		segUpstream := 0.0
		for gi := range p.Groups {
			g := &p.Groups[gi]
			lambdaCell := g.BaseLambda * p.Diurnal[((seg.Hour+g.PhaseHours)%24+24)%24]
			var sol Solution
			if !seg.Outage {
				lines := make([]Line, len(p.Bands))
				for i, b := range p.Bands {
					lines[i] = Line{Lambda: lambdaCell * b.PerName(), TTL: g.Lifetime,
						Bytes: p.Spec.RecordBytes, Count: float64(b.Count())}
				}
				sol = solveCache(lines, g.Cache)
			}
			for bi, b := range p.Bands {
				li := lambdaCell * b.PerName()
				n := float64(b.Count()) * g.Resolvers
				queries := li * seg.Dur * n
				res.Queries += queries
				res.Groups[gi].Queries += queries
				if seg.Outage {
					var hits float64
					if g.Lifetime > 0 {
						decay := math.Exp(-seg.Dur / g.Lifetime)
						hits = li * (occ[gi][bi] * g.Lifetime * (1 - decay)) * n
						occ[gi][bi] *= decay
					} else {
						occ[gi][bi] = 0
					}
					res.Hits += hits
					res.Failed += queries - hits
					res.Groups[gi].Hits += hits
					continue
				}
				lr := sol.PerLine[bi]
				end, hits, misses := OccupancyStep(occ[gi][bi], li, EffectiveLifetime(lr.Hit, li), seg.Dur)
				occ[gi][bi] = end
				res.Hits += hits * n
				res.Misses += misses * n
				segUpstream += misses * n
				res.Groups[gi].Hits += hits * n
				if lr.Hit > 0 {
					ratio := math.Min(hits/(li*seg.Dur)/lr.Hit, 1)
					pf := lr.Prefetch * seg.Dur * ratio * n
					res.Prefetches += pf
					segUpstream += pf
					res.Evictions += lr.Evict * seg.Dur * ratio * n
				}
			}
		}
		res.Upstream += segUpstream
		if qps := segUpstream / seg.Dur; qps > res.PeakUpstreamQPS {
			res.PeakUpstreamQPS = qps
		}
		res.VirtualSeconds += seg.Dur
	}
	return res
}

// sameBits fails the test for every field of got that is not want's
// float64 bit for bit.
func sameBits(t *testing.T, got, want *Result) {
	t.Helper()
	eq := func(name string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: got %v (%#x), want %v (%#x)", name, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	eq("VirtualSeconds", got.VirtualSeconds, want.VirtualSeconds)
	eq("Users", got.Users, want.Users)
	eq("Queries", got.Queries, want.Queries)
	eq("Hits", got.Hits, want.Hits)
	eq("Misses", got.Misses, want.Misses)
	eq("Failed", got.Failed, want.Failed)
	eq("Upstream", got.Upstream, want.Upstream)
	eq("Prefetches", got.Prefetches, want.Prefetches)
	eq("Evictions", got.Evictions, want.Evictions)
	eq("PeakUpstreamQPS", got.PeakUpstreamQPS, want.PeakUpstreamQPS)
	eq("Resolvers", got.Resolvers, want.Resolvers)
	if got.Lines != want.Lines || len(got.Groups) != len(want.Groups) {
		t.Fatalf("shape: %d lines / %d groups, want %d / %d", got.Lines, len(got.Groups), want.Lines, len(want.Groups))
	}
	for i, g := range got.Groups {
		w := want.Groups[i]
		if g.Profile != w.Profile || g.Region != w.Region {
			t.Errorf("group %d is %s/%s, want %s/%s", i, g.Profile, g.Region, w.Profile, w.Region)
		}
		eq(g.Profile+"/"+g.Region+" Queries", g.Queries, w.Queries)
		eq(g.Profile+"/"+g.Region+" Hits", g.Hits, w.Hits)
	}
}

// TestRunUseCountedMemo drives the memo's lifetime rule on a program small
// enough to count by hand. Groups "a" and "b" are the same cohort class an
// hour apart, so b asks in segment h for the key a asks for in segment
// h+1 — shared keys whose two uses lie in different segments — while the
// first and last rate of the window, and everything group "c" (another
// lifetime) asks for, is used once.
func TestRunUseCountedMemo(t *testing.T) {
	diurnal := make([]float64, 24)
	for h := range diurnal {
		diurnal[h] = 0.5 + 0.07*float64(h) // all distinct
	}
	cs := CacheSpec{MaxBytes: 40_000, BaseBytes: 4_000, Policy: cache.EvictSLRU, PrefetchFrac: 0.1}
	group := func(name string, phase int, lifetime float64) Group {
		return Group{Profile: name, Region: "r", Users: 30_000, Resolvers: 3,
			BaseLambda: 12, Lifetime: lifetime, PhaseHours: phase, Cache: cs}
	}
	program := func(policy cache.EvictionPolicy, segs []Segment) *Program {
		p := &Program{
			Spec:     Spec{Users: 90_000, RecordBytes: 150},
			Groups:   []Group{group("a", 0, 300), group("b", 1, 300), group("c", 0, 60)},
			Bands:    ZipfBands(5000, 1.0, 16),
			Segments: segs,
			Diurnal:  diurnal,
		}
		for gi := range p.Groups {
			p.Groups[gi].Cache.Policy = policy
		}
		return p
	}
	hourly := func(n int) []Segment {
		segs := make([]Segment, n)
		for h := range segs {
			segs[h] = Segment{Start: float64(h) * 3600, Dur: 3600, Hour: h}
		}
		return segs
	}
	// Outage over segments 2–3 and a purge at 4: a's use of hour 2's rate
	// and b's use of hour 4's are skipped, so those two keys, shared in the
	// plain schedule, are single-use here.
	chaos := hourly(6)
	chaos[2].Outage, chaos[3].Outage = true, true
	chaos[4].PurgeAtStart = true

	for _, tc := range []struct {
		name       string
		policy     cache.EvictionPolicy
		segs       []Segment
		wantSolves int // distinct keys among the uses outside outages
	}{
		// a: hours 0–5, b: hours 1–6 → 7 keys, 5 of them shared; c: 6.
		{"plain/slru", cache.EvictSLRU, hourly(6), 13},
		{"plain/lru", cache.EvictLRU, hourly(6), 13},
		// a: 0,1,4,5; b: 1,2,5,6 → 6 keys, 2 of them shared; c: 4.
		{"chaos/slru", cache.EvictSLRU, chaos, 10},
		{"chaos/fifo", cache.EvictFIFO, chaos, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := program(tc.policy, tc.segs)
			got, memo := run(p)
			sameBits(t, got, referenceRun(p))
			if tc.segs[2].Outage && got.Failed <= 0 {
				t.Error("outage segments failed no queries")
			}
			if memo.solves != tc.wantSolves || len(memo.states) != tc.wantSolves {
				t.Errorf("%d solves for %d keys, want %d each: a solution was freed early or solved twice",
					memo.solves, len(memo.states), tc.wantSolves)
			}
			for key, st := range memo.states {
				if st.left != 0 || st.rates != nil {
					t.Errorf("key %+v ends with %d uses left, buffer held %v: a count leaked",
						key, st.left, st.rates != nil)
				}
			}
			// Two solutions are live at most — the one b holds over for a's
			// next segment and the one in use — so two buffers serve the run.
			if len(memo.free) != 2 {
				t.Errorf("%d buffers allocated for %d solves, want 2", len(memo.free), tc.wantSolves)
			}
			if got.Evictions <= 0 {
				t.Error("the byte bound never bound: the pressured solver paths went unexercised")
			}
		})
	}
}
