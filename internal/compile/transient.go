package compile

import "math"

// transient.go is the compiler's finite-horizon cache model. The steady
// fixed point in cachemodel.go answers "where does a line set settle";
// this file answers "what happens on the way there", which is what short
// experiment windows and planet-scale warm-up segments are made of.
//
// The crucial piece of physics the steady model cannot express: an
// expired entry keeps occupying cache BYTES until it is evicted or
// replaced. Byte occupancy is therefore a seen-set, not the fresh-entry
// steady state — per line it only grows (insertions) or is cut by
// eviction, never by TTL expiry. Each line carries two probabilities:
//
//	res — the name occupies bytes (resident, fresh OR stale)
//	occ — the name is resident AND fresh (answers hits; occ ≤ res)
//
// Unbounded dynamics: res' = λ(1−res), occ' = λ(1−occ) − occ/T (both
// closed-form per step). When resident bytes exceed the budget, the
// policies diverge:
//
//   - fifo: victims are the least-recently-STORED entries, and a
//     resident entry only re-stores on a miss. A full FIFO is therefore
//     a queue cycling at the insertion rate: EVERY entry — hot or not,
//     fresh or not — is evicted exactly L seconds after its last store,
//     where L is the queue's cycle time. That caps every line's cache
//     lifetime at min(TTL, L), which is why a byte-bound FIFO's hit rate
//     goes flat in TTL once TTL > L (the simulated pressure grid shows
//     identical FIFO hit rates at TTL 30/60/300). L is found by
//     bisection so the policy's resident-probability forms fill the
//     budget exactly.
//   - lru: victims are the longest-idle entries. The resident cap is the
//     Che form 1−e^{−λC}, with the characteristic idle time C bisected
//     so capped bytes fit. A victim sat idle ≥ C, so its store age is at
//     least C: victims are stale-biased, and the fresh mass lost per
//     eviction tapers by (1 − C/T) — at T ≤ C victims are certainly
//     expired and eviction costs no hits at all.
//   - slru: the protected segment (top lines that plausibly earned a
//     promotion, bounded by the entry-capacity split) is exempt; the
//     probation remainder caps like lru; and TinyLFU admission gates
//     one-hit-wonder insertions once the bound is active — a fresh
//     victim wins the admission tie, so a brand-new name only enters
//     when the current victim is stale.
type TransientResult struct {
	// PerLineHits is the expected hit count of one representative line
	// (multiply by Count for band totals).
	PerLineHits []float64
	// Hits, Misses, Evictions, Prefetches are count-weighted totals over
	// the horizon. Upstream = Misses + Prefetches.
	Hits, Misses, Evictions, Prefetches float64
	// FinalBytes is the resident workload byte expectation at the end.
	FinalBytes float64
	// BoundAt is the first time the byte bound bit; −1 if it never did.
	BoundAt float64
}

// transientProtectedMinLookups is the promotion plausibility bar: a line
// needs a second lookup for SLRU to move it to the protected segment.
const transientProtectedMinLookups = 2

// TransientCache runs the finite-horizon aggregate model from a cold
// cache. Lines must be ordered most-popular first (ZipfBands and the
// Zipf mass vectors already are) — the slru protected-segment selection
// relies on it. steps ≤ 0 picks a default resolution.
func TransientCache(lines []Line, spec CacheSpec, horizon float64, steps int) TransientResult {
	if steps <= 0 {
		steps = 256
	}
	dt := horizon / float64(steps)
	n := len(lines)
	out := TransientResult{PerLineHits: make([]float64, n), BoundAt: -1}

	res := make([]float64, n)
	occ := make([]float64, n)
	// mAcc accumulates each line's expected misses, i.e. stores: the
	// FIFO generation-0 queue is discounted by re-stores already made.
	mAcc := make([]float64, n)
	// life folds refresh-ahead into an effective lifetime; pfRate maps
	// occupancy back to the steady prefetch rate for accounting.
	life := make([]float64, n)
	pfRate := make([]float64, n)
	ssHit := make([]float64, n)
	for i, l := range lines {
		life[i] = l.TTL
		if spec.PrefetchFrac > 0 && l.TTL > 0 && l.Lambda > 0 {
			p := PrefetchSteady(l.Lambda, l.TTL, spec.PrefetchFrac)
			life[i] = EffectiveLifetime(p.Hit, l.Lambda)
			pfRate[i] = p.Prefetch
			ssHit[i] = p.Hit
		} else {
			ssHit[i] = SteadyHit(l.Lambda, l.TTL)
		}
	}

	budget := spec.MaxBytes - spec.BaseBytes
	bounded := spec.MaxBytes > 0
	bound := false       // the bound has bitten at least once
	fifoL := math.Inf(1) // FIFO queue cycle time once bound
	isFIFO := spec.Policy == "fifo" || spec.Policy == ""

	// lastProt remembers the protected shares from the latest slru
	// eviction sweep, so admission staleness is judged over the probation
	// population the victims actually come from.
	var lastProt []float64
	// fifoGen is the generation-0 queue: the resident mass stored before
	// the bound first bit, still in its original store order. Lines are
	// popularity-ordered, and first-store times order by popularity, so
	// the front of that queue is the HOTTEST names — stored at t ≈ 0 and,
	// when the TTL outlives the horizon, never re-stored since. The first
	// queue cycle after the bound evicts them in exactly that order; only
	// once the generation has drained (by eviction, or by re-stores
	// converting it to steady churn) does the quasi-steady cycle-time cap
	// describe the queue.
	var fifoGen []float64

	for s := 0; s < steps; s++ {
		elapsed := float64(s) * dt
		// Stale fraction of unprotected resident bytes — the probability a
		// probation victim carries no fresh value and is evicted without
		// an admission vote.
		stale := transientStaleFrac(lines, res, occ, lastProt)
		for i := range lines {
			l := &lines[i]
			if l.Lambda <= 0 || life[i] <= 0 {
				continue
			}
			gate := 1.0
			if spec.Policy == "slru" && bound && l.Lambda*math.Max(elapsed, dt) < transientProtectedMinLookups {
				// TinyLFU admission: the candidate's sketch estimate must
				// STRICTLY exceed the first fresh victim's. Fresh probation
				// victims are overwhelmingly old count-1 tail names, so any
				// candidate with two expected lookups wins the vote; a
				// one-hit wonder ties the count-1 victim and ties reject —
				// it only enters when the victim is stale (stale victims
				// are evicted without a vote).
				gate = stale
			}
			res[i] += (1 - res[i]) * (1 - math.Exp(-l.Lambda*gate*dt))
			lt := life[i]
			if isFIFO && bound && fifoL < lt {
				lt = fifoL
			}
			// A gated line's freshness refills at the admitted rate only
			// (rejected insertions store nothing), but its arrivals still
			// query at full λ: rescale the step's hits back to λ·∫occ.
			end, h, m := OccupancyStep(occ[i], l.Lambda*gate, lt, dt)
			if gate < 1 {
				if gate > 0 {
					h /= gate
				}
				m = l.Lambda*dt - h
			}
			if end > res[i] {
				// Residency caps freshness. The ODE path overshoots the cap
				// inside the step before this clamp; shave the overshoot
				// triangle off the step's hits (linear-path approximation).
				if end > occ[i] {
					over := (end - res[i]) * (end - res[i]) / (end - occ[i])
					h -= l.Lambda * over * dt / 2
					if h < 0 {
						h = 0
					}
					m = l.Lambda*dt - h
				}
				end = res[i]
			}
			occ[i] = end
			if fifoGen != nil && fifoGen[i] > 0 {
				// Re-stores (misses of a resident line) move entries to the
				// queue back, converting generation-0 mass to steady churn.
				fifoGen[i] *= math.Exp(-l.Lambda * (1 - occ[i]) * dt)
			}
			out.PerLineHits[i] += h
			out.Hits += h * l.count()
			out.Misses += m * l.count()
			mAcc[i] += m
			if pfRate[i] > 0 && ssHit[i] > 0 {
				ratio := math.Min(occ[i]/ssHit[i], 1)
				out.Prefetches += pfRate[i] * ratio * dt * l.count()
			}
		}
		if !bounded {
			continue
		}
		total := residentBytes(lines, res)
		if total <= budget {
			continue
		}
		if !bound {
			bound = true
			out.BoundAt = elapsed
		}
		var ev float64
		switch {
		case isFIFO:
			if fifoGen == nil {
				// Only mass still at its FIRST store position drains in
				// popularity order; anything re-stored since (expected
				// re-stores = misses − 1) has already joined the steady
				// churn at the queue back.
				fifoGen = make([]float64, n)
				for i := range fifoGen {
					fifoGen[i] = res[i] * math.Exp(-math.Max(0, mAcc[i]-1))
				}
			}
			if drainFIFOGen(lines, res, occ, fifoGen, total-budget, &ev) {
				var rest float64
				fifoL, rest = evictFIFO(lines, res, occ, life, budget)
				ev += rest
			}
		case spec.Policy == "slru":
			_, ev, lastProt = evictSLRU(lines, res, occ, life, spec, budget, elapsed)
		default: // lru
			_, ev = evictByIdle(lines, res, occ, life, nil, spec.PrefetchFrac, budget, elapsed)
		}
		out.Evictions += ev
	}
	out.FinalBytes = residentBytes(lines, res)
	return out
}

// drainFIFOGen evicts over bytes from the generation-0 queue in store
// order (line order: hottest stored first). Generation-0 victims carry
// their line's current fresh share — when the TTL outlives the run they
// are fresh hot entries, and evicting them is exactly the FIFO transient
// pathology. Returns true when the generation is exhausted and the
// caller should fall through to the quasi-steady queue model.
func drainFIFOGen(lines []Line, res, occ, gen []float64, over float64, ev *float64) bool {
	for i := range lines {
		if over <= 0 {
			return false
		}
		g := math.Min(gen[i], res[i])
		gen[i] = g
		if g <= 0 {
			continue
		}
		avail := g * lines[i].Bytes * lines[i].count()
		take := math.Min(avail, over)
		e := take / avail * g
		fresh := 0.0
		if res[i] > 0 {
			fresh = occ[i] / res[i]
		}
		occ[i] -= e * fresh
		if occ[i] < 0 {
			occ[i] = 0
		}
		res[i] -= e
		gen[i] -= e
		*ev += e * lines[i].count()
		over -= take
	}
	return over > 0
}

func residentBytes(lines []Line, res []float64) float64 {
	b := 0.0
	for i := range lines {
		b += res[i] * lines[i].Bytes * lines[i].count()
	}
	return b
}

// transientStaleFrac is the stale share of resident bytes: 1 − occ/res,
// byte-weighted. A non-nil prot vector discounts each line's protected
// share, leaving the staleness of the probation population.
func transientStaleFrac(lines []Line, res, occ, prot []float64) float64 {
	var r, o float64
	for i := range lines {
		w := lines[i].Bytes * lines[i].count()
		if prot != nil {
			w *= 1 - prot[i]
		}
		r += res[i] * w
		o += occ[i] * w
	}
	if r <= 0 {
		return 1
	}
	return 1 - o/r
}

// fifoResident is the steady resident probability of one line in a FIFO
// queue with cycle time L: an entry lives exactly L seconds from its
// last store. For L ≤ T the entry is re-stored by the first arrival
// after eviction (cycle L + Exp(λ), fresh while resident); for L > T the
// first arrival after expiry re-stores it in place if it beats the
// eviction (cycle T + Exp(λ), resident min(L, cycle) of it).
func fifoResident(lambda, ttl, L float64) float64 {
	if lambda <= 0 || L <= 0 {
		return 0
	}
	if L <= ttl || math.IsInf(ttl, 1) {
		return lambda * L / (1 + lambda*L)
	}
	return (ttl + (1-math.Exp(-lambda*(L-ttl)))/lambda) / (ttl + 1/lambda)
}

// evictFIFO finds the queue cycle time L at which the FIFO resident
// probabilities fill the budget exactly, and caps each line's residency
// there. The returned L feeds back as a lifetime cap on every line.
func evictFIFO(lines []Line, res, occ, life []float64, budget float64) (L, evictions float64) {
	cappedBytes := func(l float64) float64 {
		b := 0.0
		for i := range lines {
			b += math.Min(res[i], fifoResident(lines[i].Lambda, life[i], l)) *
				lines[i].Bytes * lines[i].count()
		}
		return b
	}
	hi := 1.0
	for iter := 0; iter < 64 && cappedBytes(hi) < budget; iter++ {
		hi *= 2
	}
	if cappedBytes(hi) < budget {
		return math.Inf(1), 0
	}
	lo := 0.0
	for iter := 0; iter < 48; iter++ {
		mid := (lo + hi) / 2
		if cappedBytes(mid) > budget {
			hi = mid
		} else {
			lo = mid
		}
	}
	L = (lo + hi) / 2
	for i := range lines {
		if limit := fifoResident(lines[i].Lambda, life[i], L); res[i] > limit {
			evictions += (res[i] - limit) * lines[i].count()
			res[i] = limit
			if occ[i] > res[i] {
				occ[i] = res[i]
			}
		}
	}
	return L, evictions
}

// evictByIdle is the LRU order: cap each line's residency at the Che form
// 1−e^{−λC}, bisecting the characteristic idle time C so capped resident
// bytes meet the budget. protFrac (nil for plain lru) exempts each
// line's protected share. A victim sat idle ≥ C before eviction, so its
// store age is at least C + the age of its last store at that final
// arrival — roughly uniform over the window entries can actually span,
// min(T, elapsed). The fresh mass lost per eviction therefore tapers by
// (T−C)/min(T, elapsed): zero when entries certainly expire before they
// idle out (T ≤ C), one when the TTL outlives the whole run so far
// (nothing resident has ever expired).
func evictByIdle(lines []Line, res, occ, life, protFrac []float64, pfFrac, budget, elapsed float64) (charTime, evictions float64) {
	capAt := func(i int, c float64) float64 {
		v := 1 - math.Exp(-lines[i].Lambda*c)
		if protFrac != nil {
			v = protFrac[i] + (1-protFrac[i])*v
		}
		if v > 1 {
			v = 1
		}
		return v
	}
	cappedBytes := func(c float64) float64 {
		b := 0.0
		for i := range lines {
			b += math.Min(res[i], capAt(i, c)) * lines[i].Bytes * lines[i].count()
		}
		return b
	}
	hi := 1.0
	for iter := 0; iter < 64 && cappedBytes(hi) < budget; iter++ {
		hi *= 2
	}
	if cappedBytes(hi) < budget {
		// Even uncapped residency fits (caller overshoot was tiny).
		return hi, 0
	}
	lo := 0.0
	for iter := 0; iter < 48; iter++ {
		mid := (lo + hi) / 2
		if cappedBytes(mid) > budget {
			hi = mid
		} else {
			lo = mid
		}
	}
	c := (lo + hi) / 2
	for i := range lines {
		limit := capAt(i, c)
		if res[i] <= limit {
			continue
		}
		e := res[i] - limit
		// Freshness is judged against the RAW TTL even when refresh-ahead
		// folds into a longer effective lifetime: a victim sat idle ≥ C,
		// and an idle entry is never prefetch-refreshed.
		rawT := lines[i].TTL
		if rawT <= 0 {
			rawT = life[i]
		}
		freshFrac := 0.0
		if res[i] > 0 && rawT > 0 {
			span := math.Min(rawT, elapsed)
			taper := 1.0 // rawT = +Inf: never-expiring victims are fresh
			if span > 0 && !math.IsInf(rawT, 1) {
				taper = (rawT - c) / span
				if pfFrac > 0 {
					// Refresh-ahead reshapes the victim's remaining TTL at
					// its last arrival: a refresh (probability 1−e^{−λfT})
					// left the full T, a non-refreshing hit left
					// Uniform((1−f)T, T]. The victim then idles C plus a
					// memoryless Exp(λ) overshoot before the fluid cap trims
					// it, so its fresh probability is
					// P(C + Exp(λ) < remaining), integrated over that
					// remaining-TTL mixture. This is what makes bounded
					// prefetch cheaper than its unbounded gain: the fresh
					// value refresh-ahead buys is exactly what eviction
					// destroys.
					lam := lines[i].Lambda
					fT := pfFrac * rawT
					taper = 0
					if rawT > c {
						pR := -math.Expm1(-lam * fT)
						a := math.Max(c, rawT-fT)
						j := 0.0
						if rawT > a && fT > 0 {
							j = ((rawT - a) - (math.Exp(-lam*(a-c))-math.Exp(-lam*(rawT-c)))/lam) / fT
						}
						taper = pR*(-math.Expm1(-lam*(rawT-c))) + (1-pR)*j
					}
				}
			}
			if taper < 0 {
				taper = 0
			} else if taper > 1 {
				taper = 1
			}
			freshFrac = occ[i] / res[i] * taper
		}
		occ[i] -= e * freshFrac
		res[i] = limit
		if occ[i] < 0 {
			occ[i] = 0
		}
		if occ[i] > res[i] {
			occ[i] = res[i]
		}
		evictions += e * lines[i].count()
	}
	return c, evictions
}

// evictSLRU exempts the protected segment and applies the LRU cap to the
// probation remainder. Membership is per-generation: promotion needs a
// second lookup while the entry is resident, and a refresh Put demotes
// the entry back to probation, so a line is protected with the
// probability of ≥2 arrivals inside one TTL generation (clamped to the
// elapsed run). Crucially, protection shields the line's FULL resident
// share, stale included: eviction victims come from the probation front,
// so an expired protected entry keeps hoarding its bytes until its next
// lookup demotes it — and the demoting Put immediately re-stores it
// anyway. The segment is bounded by the 80 % entry-capacity split and by
// the byte budget itself; when the workload's warm set is entry-dense
// enough (as in the pressure grid, where bytes bind far below the entry
// capacity), the protected segment can swallow the whole budget and
// probation fluid-shrinks to nothing — which is exactly how the real
// evictor degenerates, and why simulated SLRU trails plain LRU on this
// grid's short-TTL cells.
func evictSLRU(lines []Line, res, occ, life []float64, spec CacheSpec, budget, elapsed float64) (charTime, evictions float64, protFrac []float64) {
	const protectedFraction = 0.8 // mirrors cache/evict.go
	protEntries := math.Inf(1)
	if spec.MaxEntries > 0 {
		protEntries = protectedFraction * spec.MaxEntries
	}
	protFrac = make([]float64, len(lines))
	var cumE, cumB float64
	for i := range lines {
		l := &lines[i]
		w := elapsed
		if l.TTL > 0 && l.TTL < w {
			w = l.TTL
		}
		lw := l.Lambda * w
		// P(≥2 arrivals in the promotion window): Poisson tail.
		p2 := -math.Expm1(-lw) - lw*math.Exp(-lw)
		if p2 < 0.01 {
			break // popularity-ordered: nothing later promotes either
		}
		take := l.count() * math.Min(p2, res[i])
		if room := protEntries - cumE; take > room {
			take = room
		}
		if l.Bytes > 0 {
			if room := (budget - cumB) / l.Bytes; take > room {
				take = room
			}
		}
		if take <= 0 {
			break
		}
		protFrac[i] = take / l.count()
		cumE += take
		cumB += take * l.Bytes
	}
	charTime, evictions = evictByIdle(lines, res, occ, life, protFrac, spec.PrefetchFrac, budget, elapsed)
	return charTime, evictions, protFrac
}
