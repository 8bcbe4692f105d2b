package compile

import (
	"math"

	"dnsttl/internal/cache"
)

// Line is one compiled (resolver, qname) renewal process — or a band of
// Count identical processes, which is how Zipf tails stay bounded.
type Line struct {
	// Lambda is the per-line arrival rate, queries/s.
	Lambda float64
	// TTL is the cache lifetime in seconds after policy capping
	// (resolver.Policy.CacheLifetime).
	TTL float64
	// Bytes is the resident byte charge while cached
	// (cache.EntryCharge arithmetic).
	Bytes float64
	// Count aggregates identical lines; ≤0 means 1.
	Count float64
}

func (l Line) count() float64 {
	if l.Count <= 0 {
		return 1
	}
	return l.Count
}

// CacheSpec configures the shared cache the lines compete in.
type CacheSpec struct {
	// MaxBytes bounds resident bytes; 0 means unbounded.
	MaxBytes float64
	// BaseBytes is the infrastructure-resident overhead (zone cuts, NS and
	// glue records) charged against MaxBytes before workload lines.
	BaseBytes float64
	// Policy is the eviction policy; the zero value is FIFO.
	Policy cache.EvictionPolicy
	// PrefetchFrac enables refresh-ahead at this fraction of the TTL.
	PrefetchFrac float64
}

// LineRates is the steady-state outcome of one cache line.
type LineRates struct {
	// Hit is the client hit rate; by PASTA it equals the line's
	// time-average occupancy, which is what the byte fixed point charges.
	Hit float64
	// Upstream is the total upstream fetch rate (miss fetches plus
	// refresh-ahead fetches), queries/s.
	Upstream float64
	// Prefetch is the refresh-ahead fetch rate alone, queries/s.
	Prefetch float64
	// Evict is the eviction rate, events/s: cycles that end with the line
	// pushed out by the byte bound rather than expiring or refreshing.
	Evict float64
}

// Solution is the solved steady state of a line set in a shared cache.
type Solution struct {
	// PerLine has one entry per input line (representative rates; multiply
	// by Count for totals).
	PerLine []LineRates
	// CharTime is the characteristic time the byte bound induces: the
	// idle-eviction horizon (lru/slru) or residency age bound (fifo).
	// +Inf when the bound does not bind.
	CharTime float64
	// Hit is the aggregate client hit rate, arrival-weighted.
	Hit float64
	// Upstream is the total upstream fetch rate, queries/s.
	Upstream float64
	// PrefetchRate is the total refresh-ahead rate, queries/s.
	PrefetchRate float64
	// EvictRate is the total idle-eviction rate, events/s.
	EvictRate float64
	// OccBytes is the expected resident workload bytes (excluding
	// BaseBytes).
	OccBytes float64
}

// solveCacheInto finds the steady state of lines sharing one byte-bounded
// cache. Occupancy equals hit rate per line (PASTA), so the Che-style
// fixed point is: find the characteristic time C at which
// Σ count·bytes·hit(C) + BaseBytes = MaxBytes; if even C = max TTL fits,
// the bound does not bind. hit(C) is monotone in C, so bisection
// converges unconditionally.
//
// Policy fidelity (internal/experiments' validate.go measures each against
// the packet-level cache):
//   - "fifo": residency ends at age min(TTL, C) regardless of access —
//     exact closed form.
//   - "lru": idle gaps beyond C evict, by the Che product form
//     hit ≈ λT/(1+λT)·(1−e^{−λC}).
//   - "slru" (TinyLFU-admitted segmented LRU): modeled as a perfect-LFU
//     byte knapsack — lines are admitted in popularity order until the
//     budget is spent; rejected lines never cache. The admission filter's
//     imperfection shows up as the boundary band's partial admission.
//
// rates (one entry per line, every entry overwritten) is the solver's only
// working storage and backs the returned Solution's PerLine, so an engine
// that solves hundreds of states per run can recycle the buffers.
func solveCacheInto(rates []LineRates, lines []Line, spec CacheSpec) Solution {
	budget := spec.MaxBytes - spec.BaseBytes
	unbounded := spec.MaxBytes <= 0

	if spec.Policy == cache.EvictSLRU && !unbounded {
		return solveKnapsack(rates, lines, spec, budget)
	}

	maxTTL := 0.0
	for _, l := range lines {
		if l.TTL > maxTTL {
			maxTTL = l.TTL
		}
	}
	// eval overwrites rates with every line's rates at characteristic time
	// c and returns the resident workload bytes they imply.
	eval := func(c float64) float64 {
		b := 0.0
		for i, l := range lines {
			rates[i] = lineRates(l, c, spec)
			b += l.count() * l.Bytes * rates[i].Hit
		}
		return b
	}

	if full := eval(math.Inf(1)); unbounded || full <= budget {
		return summarize(lines, rates, math.Inf(1))
	}
	// Bisect C, then evaluate the rates at the root.
	lo, hi := 0.0, maxTTL
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		if eval(mid) > budget {
			hi = mid
		} else {
			lo = mid
		}
		if hi-lo < maxTTL*1e-7 {
			break
		}
	}
	c := (lo + hi) / 2
	eval(c)
	return summarize(lines, rates, c)
}

// lineRates evaluates one line at characteristic time c under the spec's
// policy.
func lineRates(l Line, c float64, spec CacheSpec) LineRates {
	switch spec.Policy {
	case cache.EvictFIFO:
		// Residency is an age bound: the line behaves as a pure-TTL line
		// with lifetime min(TTL, C).
		ttl := math.Min(l.TTL, c)
		var r LineRates
		if spec.PrefetchFrac > 0 {
			p := PrefetchSteady(l.Lambda, ttl, spec.PrefetchFrac)
			r = LineRates{Hit: p.Hit, Upstream: p.Upstream, Prefetch: p.Prefetch}
		} else {
			r = LineRates{Hit: SteadyHit(l.Lambda, ttl), Upstream: SteadyUpstream(l.Lambda, ttl)}
		}
		if c < l.TTL {
			// Every cycle ends in an age-out eviction rather than expiry.
			r.Evict = r.Upstream
		}
		return r
	default: // EvictLRU, and EvictSLRU under no bound
		var r LineRates
		if spec.PrefetchFrac > 0 {
			p := PrefetchSteady(l.Lambda, l.TTL, spec.PrefetchFrac)
			r = LineRates{Hit: p.Hit, Upstream: p.Upstream, Prefetch: p.Prefetch}
		} else {
			r = LineRates{Hit: SteadyHit(l.Lambda, l.TTL), Upstream: SteadyUpstream(l.Lambda, l.TTL)}
		}
		if !math.IsInf(c, 1) {
			// Che product form: survival of the idle bound thins hits.
			survive := 1 - math.Exp(-l.Lambda*c)
			lost := r.Hit * (1 - survive)
			r.Hit *= survive
			// Each lost hit is an extra miss fetch.
			r.Upstream += lost * l.Lambda
			r.Evict = lost * l.Lambda
		}
		return r
	}
}

// solveKnapsack is the SLRU/TinyLFU model: admit whole lines in input
// order (callers supply lines most-popular first, which Zipf banding
// guarantees) until the byte budget is exhausted; the boundary line is
// admitted fractionally, everything after never caches. Every entry of
// rates is overwritten.
func solveKnapsack(rates []LineRates, lines []Line, spec CacheSpec, budget float64) Solution {
	unpressured := CacheSpec{Policy: cache.EvictLRU, PrefetchFrac: spec.PrefetchFrac}
	spent := 0.0
	cut := math.Inf(1)
	for i, l := range lines {
		full := lineRates(l, math.Inf(1), unpressured)
		need := l.count() * l.Bytes * full.Hit
		switch {
		case spent+need <= budget:
			rates[i] = full
			spent += need
		case spent < budget:
			frac := (budget - spent) / need
			rates[i] = LineRates{
				Hit:      full.Hit * frac,
				Upstream: full.Upstream*frac + l.Lambda*(1-frac),
				Prefetch: full.Prefetch * frac,
				Evict:    l.Lambda * (1 - frac) / 2,
			}
			spent = budget
			cut = float64(i)
		default:
			// Admission-rejected: every arrival misses and refetches.
			rates[i] = LineRates{Upstream: l.Lambda}
		}
	}
	return summarize(lines, rates, cut)
}

// summarize rolls per-line rates into the aggregate solution.
func summarize(lines []Line, rates []LineRates, charTime float64) Solution {
	s := Solution{PerLine: rates, CharTime: charTime}
	totalLambda := 0.0
	for i, l := range lines {
		n := l.count()
		totalLambda += n * l.Lambda
		s.Hit += n * l.Lambda * rates[i].Hit
		s.Upstream += n * rates[i].Upstream
		s.PrefetchRate += n * rates[i].Prefetch
		s.EvictRate += n * rates[i].Evict
		s.OccBytes += n * l.Bytes * rates[i].Hit
	}
	if totalLambda > 0 {
		s.Hit /= totalLambda
	}
	return s
}
