package experiments

import (
	"fmt"
	"net/netip"

	"dnsttl/internal/cache"
	"dnsttl/internal/compile"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/resolver"
	"dnsttl/internal/stats"
	"dnsttl/internal/workload"
)

// validate.go closes the loop between the two execution planes: the
// simulated experiments (real resolver, real cache, packet-level
// iteration) and the workload compiler's closed-form renewal arithmetic
// (internal/compile). Each validator reruns a simulated experiment,
// rebuilds the same world's parameters on the compiled side — the actual
// Zipf masses from workload.Masses, the policy-capped lifetime from
// resolver.Policy.CacheLifetime, the measured cache byte overheads via
// cache.EntryCharge — and compares hit rates cell by cell. The compiled
// model must land within half a hit-point; the planet-scale tier stands
// on that agreement.

// ModelRow is one compared cell: the simulated hit rate and the
// compiler's closed-form prediction for the identical configuration.
type ModelRow struct {
	Key                 string
	Simulated, Compiled float64
}

// Delta is the signed model error in hit-rate points.
func (r ModelRow) Delta() float64 { return r.Compiled - r.Simulated }

// ModelValidation is one experiment's full comparison.
type ModelValidation struct {
	Name string
	Rows []ModelRow
}

// MaxDelta is the worst absolute model error across the grid.
func (v *ModelValidation) MaxDelta() float64 {
	worst := 0.0
	for _, r := range v.Rows {
		if d := r.Delta(); d > worst {
			worst = d
		} else if -d > worst {
			worst = -d
		}
	}
	return worst
}

// Report renders the comparison as a standard experiment report.
func (v *ModelValidation) Report() *Report {
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Compiled model vs simulated %s (max |Δ| = %.4f)", v.Name, v.MaxDelta()),
		Header: []string{"cell", "simulated", "compiled", "Δ"},
	}
	m := map[string]float64{}
	for _, r := range v.Rows {
		tbl.AddRow(r.Key, fmt.Sprintf("%.4f", r.Simulated),
			fmt.Sprintf("%.4f", r.Compiled), fmt.Sprintf("%+.4f", r.Delta()))
		m["delta_"+r.Key] = r.Delta()
	}
	m["max_delta"] = v.MaxDelta()
	return &Report{
		ID:      "Model validation: " + v.Name,
		Title:   fmt.Sprintf("Workload-compiler hit rates track the simulated %s experiment", v.Name),
		Text:    tbl.String(),
		Metrics: m,
	}
}

// finiteHits is one name's expected hit count over horizon d: arrivals
// minus the exact cold-start miss count at the line's effective lifetime.
func finiteHits(lambda, lifetime, d float64) float64 {
	return lambda*d - compile.ColdMisses(lambda, lifetime, d)
}

// ValidateHitRateModel compares the compiler against HitRateVsTTL: same
// name universe, same per-point horizon (queries/qps), exact cold-start
// arithmetic per name.
func ValidateHitRateModel(queries, workers int, seed int64) *ModelValidation {
	if queries <= 0 {
		queries = 20000
	}
	sim := HitRateVsTTL(queries, workers, seed)
	const names, qps = 200, 2.0
	masses := workload.New(dnswire.NewName("example.org"), names, 1.0, qps, seed).Masses()
	pol := resolver.DefaultPolicy()
	d := float64(queries) / qps
	v := &ModelValidation{Name: "hitrate"}
	for _, ttl := range []uint32{10, 30, 60, 300, 1000, 3600, 14400, 86400} {
		life := float64(pol.CacheLifetime(ttl))
		hits := 0.0
		for _, m := range masses {
			hits += finiteHits(qps*m, life, d)
		}
		key := fmt.Sprintf("hit_rate_ttl_%d", ttl)
		v.Rows = append(v.Rows, ModelRow{
			Key: key, Simulated: sim.Metrics[key], Compiled: hits / float64(queries),
		})
	}
	return v
}

// ValidateFragmentationModel compares the compiler against
// FarmFragmentation. Topology lowers to renewal structure: Private with
// random placement thins each name's Poisson stream to λ/n per frontend
// (n independent cold caches); Shared and Sharded concentrate each name
// in exactly one cache, so they match the single-resolver line.
func ValidateFragmentationModel(queries, workers int, seed int64) *ModelValidation {
	if queries <= 0 {
		queries = 4000
	}
	sim := FarmFragmentation(queries, workers, seed)
	const names, qps = 150, 8.0
	masses := workload.New(dnswire.NewName("example.org"), names, 1.0, qps, seed).Masses()
	pol := resolver.DefaultPolicy()
	d := float64(queries) / qps
	v := &ModelValidation{Name: "fragmentation"}
	for _, ttl := range []uint32{60, 3600} {
		life := float64(pol.CacheLifetime(ttl))
		for _, nf := range []int{1, 4, 16} {
			for _, topo := range []string{"private", "shared", "sharded"} {
				hits := 0.0
				for _, m := range masses {
					li := qps * m
					if topo == "private" {
						// n independent caches, each fed the thinned stream.
						hits += float64(nf) * finiteHits(li/float64(nf), life, d)
					} else {
						hits += finiteHits(li, life, d)
					}
				}
				key := fmt.Sprintf("hit_%s_f%d_ttl%d", topo, nf, ttl)
				v.Rows = append(v.Rows, ModelRow{
					Key: key, Simulated: sim.Metrics[key], Compiled: hits / float64(queries),
				})
			}
		}
	}
	return v
}

// pressureOverheads measures the model's byte inputs from the real cache:
// the per-entry charge of one workload record (cache.EntryCharge of its
// key and wire size) and the resident infrastructure bytes (root/org
// referral records) a warmed resolver carries before any workload entry —
// the BaseBytes the byte fixed point must reserve.
func pressureOverheads(seed int64) (perEntry, baseBytes float64) {
	w := newZipfWorld(pressurePlan, pressureNames, pressureTTLs[0], pressureQPS, seed, seed)
	res := resolver.New(netip.MustParseAddr("10.31.0.9"), resolver.DefaultPolicy(),
		w.net, w.clock, []netip.Addr{w.rootAddr}, seed)
	name := w.gen.Names[0]
	if _, err := res.Resolve(name, dnswire.TypeA); err != nil {
		panic(err)
	}
	rr := pressurePlan.record(name, 0, pressureTTLs[0])
	perEntry = float64(cache.EntryCharge(len(name), rr.WireSize()))
	baseBytes = float64(res.Cache.Stats().Bytes) - perEntry
	return perEntry, baseBytes
}

// ValidatePressureModel compares the compiler's transient byte-bounded
// model against PressureRun: same masses, same MaxBytes and entry
// capacity, same eviction policies. The short pressure horizon (~167s)
// is dominated by the cold-start transient — the cache fills with both
// fresh and expired-but-resident entries until the byte bound bites —
// so the steady fixed point is the wrong tool; compile.TransientCache
// steps the resident/fresh aggregate through the window instead. The
// transient stepper smooths the cold-start front its ODE can't resolve,
// so each line's hits are taken as the EXACT unbounded cold-start count
// (ColdMisses arithmetic) scaled by the stepper's bounded/unbounded hit
// ratio: the discretization error cancels in the ratio, leaving only
// the eviction physics.
func ValidatePressureModel(queries, workers int, seed int64) *ModelValidation {
	if queries <= 0 {
		queries = 4000
	}
	rep := PressureRun(queries, workers, seed)
	masses := workload.New(dnswire.NewName("example.org"), pressureNames, 1.0, pressureQPS, seed).Masses()
	perEntry, baseBytes := pressureOverheads(seed)
	d := float64(queries) / pressureQPS
	v := &ModelValidation{Name: "pressure"}
	for _, c := range rep.Cells {
		mkLines := func() []compile.Line {
			lines := make([]compile.Line, len(masses))
			for i, m := range masses {
				lines[i] = compile.Line{Lambda: pressureQPS * m, TTL: float64(c.TTL), Bytes: perEntry}
			}
			return lines
		}
		frac := 0.0
		if c.Prefetch {
			frac = 0.5
		}
		maxBytes := float64(c.MaxKB) * 1024
		spec := compile.CacheSpec{
			MaxBytes: maxBytes, BaseBytes: baseBytes,
			Policy: c.Policy, PrefetchFrac: frac,
			MaxEntries: maxBytes / 100, // mirrors pressureCell's Capacity
		}
		const steps = 512
		perLine := compile.FiniteHitModel(mkLines(), spec, d, steps)
		hits := 0.0
		for _, h := range perLine {
			hits += h
		}
		key := fmt.Sprintf("hit_%s_%dkb_ttl%d", c.Policy, c.MaxKB, c.TTL)
		if c.Prefetch {
			key = fmt.Sprintf("hit_%s_pf_%dkb_ttl%d", c.Policy, c.MaxKB, c.TTL)
		}
		simulated := 0.0
		if c.Answered > 0 {
			simulated = float64(c.Hits) / float64(c.Answered)
		}
		v.Rows = append(v.Rows, ModelRow{
			Key: key, Simulated: simulated, Compiled: hits / float64(queries),
		})
	}
	return v
}
