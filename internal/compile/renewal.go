// Package compile lowers population-scale workload specifications into
// per-(resolver, qname) renewal processes. Instead of simulating every
// client as an object, each cache line advances by closed-form
// miss-renewal arithmetic — the Jung et al. hit-rate law λT/(1+λT)
// generalized to capped/clamped TTLs, byte-bounded eviction pressure,
// and refresh-ahead prefetch — so a 10M-user day costs seconds of wall
// clock and kilobytes of state. Event-driven stepping is reserved for
// the places aggregation is unsound: diurnal rate changes, purge events,
// and outage windows, where occupancy is advanced by an explicit
// relaxation step between closed-form segments.
//
// The arithmetic here is measured against the repo's own packet-level
// simulations: internal/experiments' validate.go lowers each simulated
// hitrate, fragmentation and pressure cell to a Spec, runs it through
// CompileAndRun — the same engine the planet tier runs — and pins the
// error by regime: half a hit-point where the cache is unpressured and the
// run is long against the TTL, the measured ceiling where it is not
// (EXPERIMENTS.md "Tolerance methodology").
package compile

import "math"

// SteadyHit is the Jung et al. steady-state hit rate of one cache line:
// Poisson arrivals at lambda (queries/s) against a TTL of ttl seconds
// hit with probability λT/(1+λT).
func SteadyHit(lambda, ttl float64) float64 {
	if lambda <= 0 || ttl <= 0 {
		return 0
	}
	x := lambda * ttl
	return x / (x + 1)
}

// SteadyUpstream is the steady-state upstream (miss) rate of one line in
// queries/s: λ/(1+λT).
func SteadyUpstream(lambda, ttl float64) float64 {
	if lambda <= 0 {
		return 0
	}
	if ttl <= 0 {
		return lambda
	}
	return lambda / (1 + lambda*ttl)
}

// PrefetchRates are the steady-state rates of one cache line under
// refresh-ahead prefetch (resolver.Policy.PrefetchFraction semantics: a
// hit with remaining TTL ≤ f·T refreshes the entry).
type PrefetchRates struct {
	// Hit is the client-observed hit rate.
	Hit float64
	// Upstream is the total upstream fetch rate (miss fetches plus
	// refreshes), queries/s.
	Upstream float64
	// Prefetch is the refresh-ahead fetch rate alone, queries/s.
	Prefetch float64
}

// PrefetchSteady solves the refresh-ahead renewal cycle in closed form.
// A cycle runs from one upstream fetch to the next: the entry is fresh
// for (1−f)T before the refresh window opens; by memorylessness the next
// arrival after that is Exp(λ), so E[cycle] = (1−f)T + 1/λ. That arrival
// refreshes (a hit) with probability 1−e^{−λfT}, else the entry expired
// and it misses. Hence exactly one upstream fetch per cycle, and one
// client miss per cycle with probability e^{−λfT}.
func PrefetchSteady(lambda, ttl, frac float64) PrefetchRates {
	if lambda <= 0 || ttl <= 0 {
		return PrefetchRates{}
	}
	if frac <= 0 {
		return PrefetchRates{Hit: SteadyHit(lambda, ttl), Upstream: SteadyUpstream(lambda, ttl)}
	}
	if frac > 1 {
		frac = 1
	}
	cycle := (1-frac)*ttl + 1/lambda
	pRefresh := 1 - math.Exp(-lambda*frac*ttl)
	return PrefetchRates{
		Hit:      1 - (1-pRefresh)/(lambda*cycle),
		Upstream: 1 / cycle,
		Prefetch: pRefresh / cycle,
	}
}

// EffectiveLifetime inverts SteadyHit: the TTL at which a pure-TTL line
// would show the given steady hit rate. The engine uses it to fold
// eviction losses into an effective lifetime, so OccupancyStep relaxes a
// pressured line toward its solved steady state like any other.
func EffectiveLifetime(hit, lambda float64) float64 {
	if hit <= 0 || lambda <= 0 {
		return 0
	}
	if hit >= 1 {
		return math.Inf(1)
	}
	return hit / (lambda * (1 - hit))
}

// OccupancyStep advances one line's cache-occupancy probability through a
// segment of dur seconds at constant arrival rate lambda, returning the
// end occupancy and the expected hits and misses during the segment. The
// occupancy ODE occ' = λ(1−occ) − occ/T relaxes toward the steady state
// λT/(1+λT) at rate λ+1/T; its closed-form solution integrates exactly
// over the segment. This is the event-driven path the engine uses where
// rates change (diurnal slices) or state is perturbed (purges, outages);
// it reproduces the renewal steady state but smooths the cold-start
// front: a real line misses once and then hits for a whole TTL, so a run
// short against the TTL reads low (validate.go's cold regime, up to 0.8
// hit-points at its horizons).
// With lambda = 0 the line only decays: occ·e^{−dur/T}, no traffic.
func OccupancyStep(occ, lambda, ttl, dur float64) (end, hits, misses float64) {
	if dur <= 0 {
		return occ, 0, 0
	}
	if ttl <= 0 {
		return 0, 0, lambda * dur
	}
	r := lambda
	ss := 1.0
	if !math.IsInf(ttl, 1) {
		// ttl = +Inf (a never-expiring effective lifetime, e.g. from
		// EffectiveLifetime of a hit rate that rounds to 1) would make the
		// general forms below 0·∞; the limit is ss → 1, r → λ.
		r = lambda + 1/ttl
		ss = lambda * ttl / (1 + lambda*ttl)
	}
	if r <= 0 {
		// No arrivals and no expiry: the line is frozen.
		return occ, 0, 0
	}
	decay := math.Exp(-r * dur)
	end = ss + (occ-ss)*decay
	// ∫occ dt over the segment.
	intOcc := ss*dur + (occ-ss)*(1-decay)/r
	hits = lambda * intOcc
	misses = lambda*dur - hits
	return end, hits, misses
}
