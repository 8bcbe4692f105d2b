package compile

import (
	"math"
	"math/rand"
	"testing"
)

// simLine brute-forces one cache line: Poisson arrivals at lambda against
// TTL ttl and optional refresh-ahead fraction f, over the horizon. Returns
// hits, misses, upstream fetches, prefetches.
func simLine(rng *rand.Rand, lambda, ttl, f, horizon float64) (hits, misses, upstream, prefetch float64) {
	var now, expiry float64
	cached := false
	for {
		now += rng.ExpFloat64() / lambda
		if now > horizon {
			return
		}
		if cached && now < expiry {
			hits++
			if f > 0 && expiry-now <= f*ttl {
				expiry = now + ttl // refresh-ahead
				prefetch++
				upstream++
			}
		} else {
			misses++
			upstream++
			cached = true
			expiry = now + ttl
		}
	}
}

func TestSteadyHitAgainstSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct{ lambda, ttl float64 }{
		{0.5, 60}, {0.01, 300}, {3, 30}, {0.002, 3600},
	} {
		const horizon = 2e6
		hits, misses, _, _ := simLine(rng, c.lambda, c.ttl, 0, horizon)
		got := hits / (hits + misses)
		want := SteadyHit(c.lambda, c.ttl)
		if math.Abs(got-want) > 0.004 {
			t.Errorf("λ=%v T=%v: simulated hit %.4f vs closed form %.4f", c.lambda, c.ttl, got, want)
		}
		up := SteadyUpstream(c.lambda, c.ttl)
		if math.Abs(misses/horizon-up) > 0.004*c.lambda {
			t.Errorf("λ=%v T=%v: simulated upstream %.5f vs %.5f", c.lambda, c.ttl, misses/horizon, up)
		}
	}
}

func TestPrefetchSteadyAgainstSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ lambda, ttl, f float64 }{
		{0.5, 60, 0.5}, {0.05, 60, 0.5}, {2, 300, 0.1}, {0.01, 300, 0.9},
	} {
		const horizon = 3e6
		hits, misses, upstream, prefetch := simLine(rng, c.lambda, c.ttl, c.f, horizon)
		p := PrefetchSteady(c.lambda, c.ttl, c.f)
		if got := hits / (hits + misses); math.Abs(got-p.Hit) > 0.004 {
			t.Errorf("λ=%v T=%v f=%v: hit %.4f vs %.4f", c.lambda, c.ttl, c.f, got, p.Hit)
		}
		if got := upstream / horizon; math.Abs(got-p.Upstream) > 0.02*p.Upstream+1e-6 {
			t.Errorf("λ=%v T=%v f=%v: upstream %.6f vs %.6f", c.lambda, c.ttl, c.f, got, p.Upstream)
		}
		if got := prefetch / horizon; math.Abs(got-p.Prefetch) > 0.03*p.Prefetch+1e-6 {
			t.Errorf("λ=%v T=%v f=%v: prefetch %.6f vs %.6f", c.lambda, c.ttl, c.f, got, p.Prefetch)
		}
	}
}

func TestOccupancyStepConverges(t *testing.T) {
	lambda, ttl := 0.4, 90.0
	ss := SteadyHit(lambda, ttl)
	occ := 0.0
	var totalHits, totalQ float64
	for i := 0; i < 200; i++ {
		end, hits, misses := OccupancyStep(occ, lambda, ttl, 60)
		occ = end
		totalHits += hits
		totalQ += hits + misses
	}
	if math.Abs(occ-ss) > 1e-6 {
		t.Errorf("occupancy %.6f should converge to steady %.6f", occ, ss)
	}
	// Long-run hit fraction approaches the steady value from below
	// (cold start costs extra misses).
	frac := totalHits / totalQ
	if frac >= ss || frac < ss-0.02 {
		t.Errorf("transient-inclusive hit fraction %.4f vs steady %.4f", frac, ss)
	}
	// Decay-only: no arrivals drains occupancy.
	end, hits, _ := OccupancyStep(0.8, 0, ttl, 90)
	if hits != 0 || math.Abs(end-0.8*math.Exp(-1)) > 1e-9 {
		t.Errorf("zero-rate decay wrong: end=%v hits=%v", end, hits)
	}
}

func TestEffectiveLifetimeInverts(t *testing.T) {
	for _, lambda := range []float64{0.01, 0.5, 4} {
		for _, ttl := range []float64{10, 300, 7200} {
			h := SteadyHit(lambda, ttl)
			if got := EffectiveLifetime(h, lambda); math.Abs(got-ttl) > ttl*1e-9 {
				t.Errorf("EffectiveLifetime(SteadyHit(λ=%v,T=%v)) = %v", lambda, ttl, got)
			}
		}
	}
}
