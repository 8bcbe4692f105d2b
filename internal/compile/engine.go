package compile

import (
	"fmt"
	"math"

	"dnsttl/internal/cache"
)

// GroupResult is one cohort's accumulated outcome.
type GroupResult struct {
	Profile, Region string
	Queries, Hits   float64
}

// Result is the engine's accumulated outcome over the horizon.
type Result struct {
	// VirtualSeconds is the simulated span; Users the modeled population.
	VirtualSeconds, Users float64
	// Queries, Hits, Misses, Failed are client-side totals. Failed counts
	// queries that missed during an outage window (no upstream to refill
	// from); they are not part of Misses.
	Queries, Hits, Misses, Failed float64
	// Upstream, Prefetches, Evictions are cache-side totals across all
	// resolver cells.
	Upstream, Prefetches, Evictions float64
	// PeakUpstreamQPS is the highest per-segment upstream rate — the
	// authoritative provisioning number.
	PeakUpstreamQPS float64
	// Lines and Resolvers report compiled state size.
	Lines     int
	Resolvers float64
	Groups    []GroupResult
}

// HitRate is hits over answered (non-failed) queries.
func (r *Result) HitRate() float64 {
	if a := r.Queries - r.Failed; a > 0 {
		return r.Hits / a
	}
	return 0
}

// Amplification is upstream fetches per client query — the paper's
// authoritative-load lens: how much of the client demand leaks past the
// caches.
func (r *Result) Amplification() float64 {
	if r.Queries > 0 {
		return r.Upstream / r.Queries
	}
	return 0
}

// memoKey identifies one steady-state cache solve: cohorts with the same
// policy shape and (quantized) cell rate share the solution. The rate is
// quantized to 1e-6 queries/s, and the first (segment, group) to ask for a
// key decides the exact rate that is solved for it.
//
// Sharing is real but partial. The planet cells make 378 / 714 / 839
// distinct solves (100m / 10m / 1m users) for their 1008 (segment, group)
// uses — regions on shifted clocks meet the same rate at different hours —
// so 38–83 % of the solutions are used exactly once. The memo therefore
// counts uses instead of keeping everything: see steadyMemo.
type memoKey struct {
	policy      cache.EvictionPolicy
	prefetch    float64
	lifetime    float64
	maxBytes    float64
	baseBytes   float64
	microLambda int64
}

// keyOf is the key of one of the group's cells at the given client rate.
func keyOf(g *Group, lambdaCell float64) memoKey {
	return memoKey{
		policy: g.Cache.Policy, prefetch: g.Cache.PrefetchFrac,
		lifetime: g.Lifetime, maxBytes: g.Cache.MaxBytes, baseBytes: g.Cache.BaseBytes,
		microLambda: int64(lambdaCell * 1e6),
	}
}

// steadyState is one memo entry: a solved steady state and the number of
// uses it still has to serve.
type steadyState struct {
	// rates is the per-band solution; nil before the first use and again
	// after the last, when the buffer has gone back to the free list.
	rates []LineRates
	// left counts the (segment, group) uses still to come.
	left int
}

// steadyMemo is the run's use-counted memo. A pre-pass over the schedule
// counts how often each key will be asked for; a solution is computed at
// its first use, lives until its last, and its buffer then serves a later
// solve. A day's run so holds the solutions that are between two of their
// uses — not one per distinct key — and allocates a buffer only when the
// free list is empty.
type steadyMemo struct {
	states map[memoKey]*steadyState
	free   [][]LineRates
	// solves counts steady states computed.
	solves int
}

// cellRate is one of the group's cells' client rate during the segment:
// the base rate under the diurnal multiplier of the region's local hour.
func (p *Program) cellRate(seg *Segment, g *Group) float64 {
	return g.BaseLambda * p.Diurnal[((seg.Hour+g.PhaseHours)%24+24)%24]
}

// Run advances the program through its segments. Within a segment every
// line moves by closed-form occupancy arithmetic toward the segment's
// steady state (solved once per distinct (cohort-class, rate), see
// steadyMemo); purge and outage events — where that aggregation is
// unsound — are handled by explicit state resets and refill-free decay.
func Run(p *Program) (*Result, error) {
	res, _ := run(p)
	return res, nil
}

// run is Run, also handing back the memo so tests can audit its counts.
func run(p *Program) (*Result, *steadyMemo) {
	spec := p.Spec
	res := &Result{Users: spec.Users, Lines: p.Lines()}
	nb := len(p.Bands)
	occ := make([]float64, len(p.Groups)*nb) // group-major
	res.Groups = make([]GroupResult, len(p.Groups))
	for gi := range p.Groups {
		res.Resolvers += p.Groups[gi].Resolvers
		res.Groups[gi] = GroupResult{Profile: p.Groups[gi].Profile, Region: p.Groups[gi].Region}
	}
	// Per-band constants of the inner loops.
	perName := make([]float64, nb)
	count := make([]float64, nb)
	for bi, b := range p.Bands {
		perName[bi] = b.PerName()
		count[bi] = float64(b.Count())
	}

	// Pre-pass: count the uses of every key. Outage segments solve nothing.
	memo := &steadyMemo{states: map[memoKey]*steadyState{}}
	for si := range p.Segments {
		seg := &p.Segments[si]
		if seg.Outage {
			continue
		}
		for gi := range p.Groups {
			g := &p.Groups[gi]
			key := keyOf(g, p.cellRate(seg, g))
			st := memo.states[key]
			if st == nil {
				st = &steadyState{}
				memo.states[key] = st
			}
			st.left++
		}
	}
	lines := make([]Line, nb) // the solver's input, refilled in place per solve
	solve := func(g *Group, lambdaCell float64) *steadyState {
		st := memo.states[keyOf(g, lambdaCell)]
		if st.rates != nil {
			return st
		}
		if n := len(memo.free); n > 0 {
			st.rates, memo.free = memo.free[n-1], memo.free[:n-1]
		} else {
			st.rates = make([]LineRates, nb)
		}
		for i := range lines {
			lines[i] = Line{
				Lambda: lambdaCell * perName[i],
				TTL:    g.Lifetime,
				Bytes:  spec.RecordBytes,
				Count:  count[i],
			}
		}
		solveCacheInto(st.rates, lines, g.Cache)
		memo.solves++
		return st
	}

	for si := range p.Segments {
		seg := &p.Segments[si]
		if seg.PurgeAtStart {
			clear(occ)
		}
		segUpstream := 0.0
		for gi := range p.Groups {
			g := &p.Groups[gi]
			lambdaCell := p.cellRate(seg, g)
			scale := g.Resolvers // cells are identical; totals scale linearly
			gocc, gres := occ[gi*nb:(gi+1)*nb], &res.Groups[gi]

			if seg.Outage {
				// Upstream dark: hits drain the decaying cache, misses fail.
				for bi := range gocc {
					li := lambdaCell * perName[bi]
					n := count[bi] * scale
					queries := li * seg.Dur * n
					var hits float64
					if g.Lifetime > 0 {
						decay := math.Exp(-seg.Dur / g.Lifetime)
						intOcc := gocc[bi] * g.Lifetime * (1 - decay)
						hits = li * intOcc * n
						gocc[bi] *= decay
					} else {
						gocc[bi] = 0
					}
					res.Queries += queries
					res.Hits += hits
					res.Failed += queries - hits
					gres.Queries += queries
					gres.Hits += hits
				}
				continue
			}

			st := solve(g, lambdaCell)
			for bi, lr := range st.rates {
				li := lambdaCell * perName[bi]
				n := count[bi] * scale
				ss := lr.Hit
				eff := EffectiveLifetime(ss, li)
				end, hits, misses := OccupancyStep(gocc[bi], li, eff, seg.Dur)
				gocc[bi] = end
				res.Queries += li * seg.Dur * n
				res.Hits += hits * n
				res.Misses += misses * n
				segUpstream += misses * n
				gres.Queries += li * seg.Dur * n
				gres.Hits += hits * n
				// Prefetch and eviction flow with occupancy: scale the
				// steady rates by the segment's occupancy-to-steady ratio.
				if ss > 0 {
					avgOcc := hits / (li * seg.Dur)
					ratio := avgOcc / ss
					if ratio > 1 { // math.Min(ratio, 1) bit for bit, NaN included, inlined
						ratio = 1
					}
					pf := lr.Prefetch * seg.Dur * ratio * n
					res.Prefetches += pf
					segUpstream += pf
					res.Evictions += lr.Evict * seg.Dur * ratio * n
				}
			}
			if st.left--; st.left == 0 {
				memo.free = append(memo.free, st.rates)
				st.rates = nil
			}
		}
		res.Upstream += segUpstream
		if seg.Dur > 0 {
			if qps := segUpstream / seg.Dur; qps > res.PeakUpstreamQPS {
				res.PeakUpstreamQPS = qps
			}
		}
		res.VirtualSeconds += seg.Dur
	}
	return res, memo
}

// CompileAndRun is the one-call form: lower the spec, run the program.
func CompileAndRun(spec Spec) (*Result, error) {
	p, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	return Run(p)
}

// String summarizes a result for logs.
func (r *Result) String() string {
	return fmt.Sprintf("users=%.0f lines=%d hit=%.4f amp=%.4f peakUp=%.0fqps evict=%.0f prefetch=%.0f failed=%.0f",
		r.Users, r.Lines, r.HitRate(), r.Amplification(), r.PeakUpstreamQPS, r.Evictions, r.Prefetches, r.Failed)
}
