package compile

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestCompositeLineAgainstSimulation pins the Volterra solver to the
// brute-forced composite process across TTL/eviction/prefetch regimes.
func TestCompositeLineAgainstSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct{ lambda, ttl, c, f float64 }{
		{0.5, 60, 20, 0},    // eviction-dominated
		{0.5, 60, 45, 0},    // mixed
		{0.05, 300, 100, 0}, // sparse, eviction binds
		{2, 300, 40, 0},     // hot: eviction nearly irrelevant
		{0.5, 60, 40, 0.5},  // prefetch + eviction
		{0.2, 120, 80, 0.3}, // prefetch + eviction, slower line
	}
	for _, c := range cases {
		const horizon = 2e6
		hits, misses, upstream, prefetch := simLine(rng, c.lambda, c.ttl, c.c, c.f, horizon)
		got := CompositeLine(c.lambda, c.ttl, c.c, c.f, 384)
		simHit := hits / (hits + misses)
		if math.Abs(simHit-got.Hit) > 0.005 {
			t.Errorf("λ=%v T=%v C=%v f=%v: hit %.4f vs volterra %.4f", c.lambda, c.ttl, c.c, c.f, simHit, got.Hit)
		}
		if simUp := upstream / horizon; math.Abs(simUp-got.Upstream) > 0.03*simUp+1e-6 {
			t.Errorf("λ=%v T=%v C=%v f=%v: upstream %.6f vs %.6f", c.lambda, c.ttl, c.c, c.f, simUp, got.Upstream)
		}
		if c.f > 0 {
			if simPf := prefetch / horizon; math.Abs(simPf-got.Prefetch) > 0.05*simPf+1e-6 {
				t.Errorf("λ=%v T=%v C=%v f=%v: prefetch %.6f vs %.6f", c.lambda, c.ttl, c.c, c.f, simPf, got.Prefetch)
			}
		}
	}
}

// TestCompositeLineLimits: the composite solver must agree with the
// closed forms when the idle bound does not bind.
func TestCompositeLineLimits(t *testing.T) {
	for _, lam := range []float64{0.01, 0.3, 2} {
		pure := SteadyHit(lam, 60)
		r := CompositeLine(lam, 60, math.Inf(1), 0, 256)
		if math.Abs(r.Hit-pure) > 1e-9 {
			t.Errorf("λ=%v: unbounded composite hit %.6f vs steady %.6f", lam, r.Hit, pure)
		}
		// A binding idle bound can only lose hits.
		bound := CompositeLine(lam, 60, 10, 0, 256)
		if bound.Hit > pure+1e-9 {
			t.Errorf("λ=%v: eviction increased hit rate: %.6f > %.6f", lam, bound.Hit, pure)
		}
		if bound.Evict < 0 {
			t.Errorf("negative eviction rate %v", bound.Evict)
		}
	}
}

func TestSolveCacheFixedPoint(t *testing.T) {
	// 60 lines with Zipf-ish rates; bytes chosen so the bound binds.
	var lines []Line
	for i := 0; i < 60; i++ {
		lines = append(lines, Line{Lambda: 2 / float64(i+1), TTL: 300, Bytes: 100})
	}
	unbounded := SolveCache(lines, CacheSpec{Policy: "lru", Exact: true})
	if !math.IsInf(unbounded.CharTime, 1) {
		t.Fatalf("unbounded solve should not bind: charTime %v", unbounded.CharTime)
	}
	budget := unbounded.OccBytes * 0.5
	for _, policy := range []string{"fifo", "lru", "slru"} {
		sol := SolveCache(lines, CacheSpec{MaxBytes: budget, Policy: policy, Exact: true})
		if sol.OccBytes > budget*1.02 {
			t.Errorf("%s: occupancy bytes %.0f exceed budget %.0f", policy, sol.OccBytes, budget)
		}
		if policy != "slru" && sol.OccBytes < budget*0.95 {
			t.Errorf("%s: fixed point undershoots budget: %.0f of %.0f", policy, sol.OccBytes, budget)
		}
		if sol.Hit <= 0 || sol.Hit >= unbounded.Hit {
			t.Errorf("%s: bounded hit %.4f should be in (0, %.4f)", policy, sol.Hit, unbounded.Hit)
		}
		// Upstream must cover at least the lost hits.
		if sol.Upstream <= unbounded.Upstream {
			t.Errorf("%s: bounded upstream %.4f should exceed unbounded %.4f", policy, sol.Upstream, unbounded.Upstream)
		}
	}
	// SLRU's knapsack favors the head: its aggregate hit rate should beat
	// FIFO's under the same budget (the retention-dominated regime).
	slru := SolveCache(lines, CacheSpec{MaxBytes: budget, Policy: "slru", Exact: true})
	fifo := SolveCache(lines, CacheSpec{MaxBytes: budget, Policy: "fifo", Exact: true})
	if slru.Hit <= fifo.Hit {
		t.Errorf("slru hit %.4f should beat fifo %.4f under pressure", slru.Hit, fifo.Hit)
	}
}

func TestZipfBands(t *testing.T) {
	n, s := 100000, 1.0
	bands := ZipfBands(n, s, 256)
	// Coverage: bands tile [0,n) exactly and mass sums to 1.
	next := 0
	mass := 0.0
	for _, b := range bands {
		if b.Lo != next || b.Hi <= b.Lo {
			t.Fatalf("bands not contiguous at rank %d", next)
		}
		next = b.Hi
		mass += b.Mass
	}
	if next != n {
		t.Fatalf("bands cover %d of %d ranks", next, n)
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("band mass sums to %v", mass)
	}
	// Banding is logarithmic in n.
	if len(bands) > 256+40 {
		t.Errorf("band count %d not logarithmic", len(bands))
	}
	// Head bands are singletons with exact Zipf mass.
	h1 := 0.0
	for i := 0; i < n; i++ {
		h1 += 1 / float64(i+1)
	}
	if got, want := bands[0].Mass, 1/h1; math.Abs(got-want) > 1e-12 {
		t.Errorf("rank-0 mass %v, want %v", got, want)
	}
	// Per-name rate is non-increasing across bands.
	prev := math.Inf(1)
	for _, b := range bands {
		pn := b.PerName()
		if pn > prev+1e-15 {
			t.Fatalf("per-name mass increases at band [%d,%d)", b.Lo, b.Hi)
		}
		prev = pn
	}
}

// TestZipfBandsShared: a partition is computed once per distinct argument
// triple and every caller — concurrent ones included, which is how the
// planet cells ask — gets that one slice; the table it lives in is bounded.
func TestZipfBandsShared(t *testing.T) {
	const n, head = 30000, 64
	want := zipfBands(n, 1.0, head)
	got := make([][]Band, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = ZipfBands(n, 1.0, head)
		}()
	}
	wg.Wait()
	for i, b := range got {
		if &b[0] != &got[0][0] || len(b) != len(want) || cap(b) != len(b) {
			t.Fatalf("caller %d got its own slice (len %d cap %d, want one shared, clipped, len %d)", i, len(b), cap(b), len(want))
		}
	}
	for i, b := range got[0] {
		if b != want[i] {
			t.Fatalf("band %d is %+v, computed afresh %+v", i, b, want[i])
		}
	}
	// Out-of-range arguments clamp before they key the table.
	if a, b := ZipfBands(100, 1.0, 0), ZipfBands(100, 1.0, 1); &a[0] != &b[0] {
		t.Error("headExact 0 and 1 are the same partition but were computed separately")
	}
	for i := 0; i < 2*bandTableMax; i++ {
		ZipfBands(10+i, 1.0, 4)
	}
	bandTable.Lock()
	size := len(bandTable.m)
	bandTable.Unlock()
	if size > bandTableMax {
		t.Errorf("band table holds %d partitions, bound %d", size, bandTableMax)
	}
}

// TestBandedAggregationAccuracy: the banded hit rate must track the exact
// per-name sum closely — banding is a compression, not a model change.
func TestBandedAggregationAccuracy(t *testing.T) {
	n := 50000
	totalLambda := 40.0
	ttl := 300.0
	h := 0.0
	hn := 0.0
	for i := 0; i < n; i++ {
		hn += 1 / float64(i+1)
	}
	for i := 0; i < n; i++ {
		p := 1 / float64(i+1) / hn
		h += p * SteadyHit(totalLambda*p, ttl)
	}
	for _, head := range []int{128, 1024} {
		bands := ZipfBands(n, 1.0, head)
		hb := 0.0
		for _, b := range bands {
			pn := b.PerName()
			hb += b.Mass * SteadyHit(totalLambda*pn, ttl)
		}
		if d := math.Abs(hb - h); d > 0.002 {
			t.Errorf("head=%d: banded hit %.5f vs exact %.5f (Δ %.5f)", head, hb, h, d)
		}
	}
}
