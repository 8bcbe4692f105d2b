package experiments

import (
	"fmt"
	"net/netip"

	"dnsttl/internal/cache"
	"dnsttl/internal/compile"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/farm"
	"dnsttl/internal/population"
	"dnsttl/internal/resolver"
)

// validate.go closes the loop between the two execution planes: the
// simulated experiments (real resolver, real cache, packet-level
// iteration) and the workload compiler (internal/compile). Each validator
// reruns a simulated experiment, lowers every cell of it to the
// compile.Spec that describes the same world (cellSpec), runs that spec
// through compile.CompileAndRun — the engine every planet-scale number
// comes from, and the only way this package reaches the compiler
// (TestExperimentsReachCompileOnlyThroughTheEngine) — and compares hit
// rates cell by cell. How close the engine must land depends on the
// cell's regime, which ModelRow.ceiling derives from the cell's own
// parameters: half a hit-point where the cache is unpressured and the run
// is long against the TTL, the measured ceiling where it is not
// (EXPERIMENTS.md "Tolerance methodology" has the table).

// ModelRow is one compared cell: the simulated hit rate and the engine's
// for the identical configuration, plus the regime the cell is in.
type ModelRow struct {
	Key                 string
	Simulated, Compiled float64
	// cold: the run is short against the TTL (4·TTL ≥ horizon), where the
	// engine's occupancy relaxation smooths the cold-start front and reads
	// low. pressured: the compiled cell evicts under an access-ordered
	// policy, where the steady state is an approximation (Che product for
	// lru, perfect-LFU knapsack for slru); fifo's closed form is exact.
	cold, pressured bool
	policy          cache.EvictionPolicy
}

// Delta is the signed model error in hit-rate points.
func (r ModelRow) Delta() float64 { return r.Compiled - r.Simulated }

// ceiling is the largest |Delta| the row's regime allows: 0.5 hit-points
// where the engine is exact up to sampling noise, otherwise a round number
// above the worst error measured over seeds 42/1/7 (EXPERIMENTS.md
// "Tolerance methodology" lists the ranges).
func (r ModelRow) ceiling() float64 {
	switch {
	case r.pressured && r.policy == cache.EvictSLRU:
		return 0.065
	case r.pressured:
		return 0.060
	case r.cold:
		return 0.010
	}
	return 0.005
}

// ModelValidation is one experiment's full comparison.
type ModelValidation struct {
	Name string
	Rows []ModelRow
}

// cellSpec lowers one simulated Zipf-world cell to the spec that describes
// it: names Zipf(1) names at one TTL, every rank its own line, queried at
// qps in total for whole hours at a flat rate by one child-centric profile
// (resolver.DefaultPolicy, as the simulated resolvers run), the stream
// split evenly over cells independent caches.
func cellSpec(qps float64, names int, ttl uint32, hours, cells int) compile.Spec {
	const users = 1e6 // only Users × QueriesPerUserDay, the total rate, matters
	flat := make([]float64, 24)
	for i := range flat {
		flat[i] = 1
	}
	return compile.Spec{
		Users:             users,
		QueriesPerUserDay: qps * 86400 / users,
		Mix:               population.AllChildCentric(),
		UsersPerResolver:  users / float64(cells),
		Names:             names,
		ZipfS:             1.0,
		HeadExact:         names,
		TTL:               ttl,
		Hours:             hours,
		Diurnal:           flat,
	}
}

// compiledRow runs the cell's spec through the engine and reads the
// regime off the spec and the result.
func compiledRow(key string, simulated float64, spec compile.Spec) ModelRow {
	res, err := compile.CompileAndRun(spec)
	if err != nil {
		panic(err) // specs are built here; any error is a programming bug
	}
	return ModelRow{
		Key: key, Simulated: simulated, Compiled: res.HitRate(),
		cold:      4*float64(spec.TTL) >= res.VirtualSeconds,
		pressured: spec.Policy != cache.EvictFIFO && res.Evictions > 0,
		policy:    spec.Policy,
	}
}

// ValidateHitRateModel compares the engine against HitRateVsTTL over hours
// of virtual time (0 means 3) per TTL point.
func ValidateHitRateModel(hours, workers int, seed int64) *ModelValidation {
	if hours <= 0 {
		hours = 3
	}
	const names, qps = 200, 2.0
	sim := HitRateVsTTL(int(qps*3600)*hours, workers, seed)
	v := &ModelValidation{Name: "hitrate"}
	for _, ttl := range []uint32{10, 30, 60, 300, 1000, 3600, 14400, 86400} {
		key := fmt.Sprintf("hit_rate_ttl_%d", ttl)
		v.Rows = append(v.Rows, compiledRow(key, sim.Metrics[key], cellSpec(qps, names, ttl, hours, 1)))
	}
	return v
}

// ValidateFragmentationModel compares the engine against FarmFragmentation
// over hours of virtual time (0 means 4) per cell. Topology lowers to cell
// count: Private with random placement thins each name's Poisson stream to
// λ/n per frontend (n independent cold caches); Shared and Sharded
// concentrate each name in exactly one cache, so they are the
// single-resolver cell.
func ValidateFragmentationModel(hours, workers int, seed int64) *ModelValidation {
	if hours <= 0 {
		hours = 4
	}
	const names, qps = 150, 8.0
	sim := FarmFragmentation(int(qps*3600)*hours, workers, seed)
	v := &ModelValidation{Name: "fragmentation"}
	for _, ttl := range []uint32{60, 3600} {
		for _, nf := range []int{1, 4, 16} {
			for _, topo := range []farm.Topology{farm.Private, farm.Shared, farm.Sharded} {
				cells := 1
				if topo == farm.Private {
					cells = nf
				}
				key := fmt.Sprintf("hit_%s_f%d_ttl%d", topo, nf, ttl)
				v.Rows = append(v.Rows, compiledRow(key, sim.Metrics[key], cellSpec(qps, names, ttl, hours, cells)))
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

// ValidatePressureModel compares the engine against PressureRun over hours
// of virtual time (0 means 1) per cell: same byte bound, per-entry charge,
// infrastructure overhead, eviction policy and refresh-ahead fraction.
// This is the grid where the engine's steady-state forms are furthest from
// the cache they describe — and slru under a binding bound is what the
// planet tier's TTL 300 and 3600 cells run.
func ValidatePressureModel(hours, workers int, seed int64) *ModelValidation {
	if hours <= 0 {
		hours = 1
	}
	rep := PressureRun(int(pressureQPS*3600)*hours, workers, seed)
	perEntry, baseBytes := pressureOverheads(seed)
	v := &ModelValidation{Name: "pressure"}
	for _, c := range rep.Cells {
		spec := cellSpec(pressureQPS, pressureNames, uint32(c.TTL), hours, 1)
		spec.RecordBytes, spec.BaseBytes = perEntry, baseBytes
		spec.MaxBytes = float64(c.MaxKB) * 1024
		spec.Policy = c.Policy
		key := fmt.Sprintf("hit_%s_%dkb_ttl%d", c.Policy, c.MaxKB, c.TTL)
		if c.Prefetch {
			spec.PrefetchFrac = 0.5 // pressureCell's PrefetchFraction
			key = fmt.Sprintf("hit_%s_pf_%dkb_ttl%d", c.Policy, c.MaxKB, c.TTL)
		}
		v.Rows = append(v.Rows, compiledRow(key, frac(c.Hits, c.Answered), spec))
	}
	return v
}
