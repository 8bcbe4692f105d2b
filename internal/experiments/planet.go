package experiments

import (
	"fmt"
	"time"

	"dnsttl/internal/atlas"
	"dnsttl/internal/cache"
	"dnsttl/internal/compile"
	"dnsttl/internal/stats"
)

// planet.go is the planet-scale experiment tier: populations far past
// what per-client simulation can carry (1M, 10M, 100M users), run
// through the workload compiler instead. Each (tier, TTL) cell lowers a
// population spec — population.DefaultMix × the atlas region skew ×
// the default diurnal curve — into per-(resolver-cohort, name-band)
// renewal lines and advances them a full simulated day by closed-form
// arithmetic. A chaos cell per tier adds a midday authoritative outage
// and an evening cache purge, exercising the engine's event-driven
// path where aggregation is unsound. validate.go runs the same engine
// (compile.CompileAndRun) against the simulated hitrate, fragmentation
// and pressure planes and pins its error by regime: half a hit-point
// where the cache is unpressured, but the TTL 300 and 3600 cells here run
// slru under a binding bound, where the engine reads 3–6 hit-points above
// the simulator on the 1,200-name pressure grid.

// planetPhases shifts each atlas region's diurnal curve to its rough
// local time (hours relative to the curve's reference day).
var planetPhases = map[string]int{
	"EU": 1, "NA": -6, "AS": 7, "AF": 2, "SA": -4, "OC": 10,
}

// planetRegions lowers the atlas region skew into compiler region
// shares.
func planetRegions() []compile.RegionShare {
	regions, shares := atlas.RegionShares()
	out := make([]compile.RegionShare, len(regions))
	for i, r := range regions {
		out[i] = compile.RegionShare{
			Name:       r.String(),
			Share:      shares[i],
			PhaseHours: planetPhases[r.String()],
		}
	}
	return out
}

// planetSpec is the tier's base population: a million-name Zipf universe
// through 50k-user ISP resolver cells with byte-bounded SLRU caches and
// mild refresh-ahead. The 1 MB per-cell bound sits between the steady
// fresh footprint at TTL 30 (~0.2 MB, pressure-free) and at TTL 3600
// (~16 MB, heavy eviction), so the tier shows the TTL × pressure
// interaction rather than an unbounded cache in disguise.
func planetSpec(users float64, ttl uint32) compile.Spec {
	return compile.Spec{
		Users:             users,
		QueriesPerUserDay: 120,
		Regions:           planetRegions(),
		Names:             1_000_000,
		ZipfS:             1.0,
		TTL:               ttl,
		MaxBytes:          1 << 20,
		BaseBytes:         64 << 10,
		Policy:            cache.EvictSLRU,
		PrefetchFrac:      0.1,
		Hours:             24,
	}
}

// planetTiers are the modeled populations.
var planetTiers = []struct {
	Label string
	Users float64
}{
	{"1m", 1e6}, {"10m", 1e7}, {"100m", 1e8},
}

// planetTTLs spans the paper's short/medium/long regimes.
var planetTTLs = []uint32{30, 300, 3600}

// planetCell is one row of the tier: a population, a TTL, and for the
// chaos row an event schedule.
type planetCell struct {
	Tier  string
	Chaos bool
	Spec  compile.Spec
}

// planetCells lists the tier in row order: per population the three TTLs,
// then the chaos cell — the event-driven path: a 2h authoritative outage
// at noon (hits drain the decaying caches, misses fail) and a full cache
// purge at 18:00.
func planetCells() []planetCell {
	var cells []planetCell
	for _, tier := range planetTiers {
		for _, ttl := range planetTTLs {
			cells = append(cells, planetCell{Tier: tier.Label, Spec: planetSpec(tier.Users, ttl)})
		}
		chaos := planetSpec(tier.Users, 300)
		chaos.Events = []compile.Event{
			{AtHours: 12, Kind: "outage", DurHours: 2},
			{AtHours: 18, Kind: "purge"},
		}
		cells = append(cells, planetCell{Tier: tier.Label, Chaos: true, Spec: chaos})
	}
	return cells
}

// PlanetScale runs the compiled tier: one simulated day per (population,
// TTL) cell plus a chaos cell per tier (outage 12:00–14:00, purge at
// 18:00). Everything is closed-form and deterministic — no seed. The cells
// are independent (each compiles its own program; the band table they
// share is read-only), so they fan out through Sweep over workers (0 means
// GOMAXPROCS, 1 serial) and the rows are rendered in index order. The
// report's throughput metric is the compiler's reason to exist: simulated
// user-seconds delivered per wall-clock second.
func PlanetScale(workers int) *Report {
	tbl := &stats.Table{
		Title: "Planet-scale compiled tier: one day, DefaultMix × atlas regions",
		Header: []string{"users", "ttl", "hit_rate", "amplification",
			"peak_upstream_qps", "evictions", "prefetches", "failed", "lines"},
	}
	m := map[string]float64{}
	start := time.Now()
	cells := planetCells()
	results := Sweep(len(cells), workers, func(i int) *compile.Result {
		res, err := compile.CompileAndRun(cells[i].Spec)
		if err != nil {
			panic(err) // static specs; any error is a programming bug
		}
		return res
	})
	userSeconds := 0.0
	for i, res := range results {
		cell := cells[i]
		userSeconds += res.Users * res.VirtualSeconds
		ttl := fmt.Sprintf("%d", cell.Spec.TTL)
		if cell.Chaos {
			ttl += "*"
			m["hit_"+cell.Tier+"_chaos"] = res.HitRate()
			m["failed_"+cell.Tier+"_chaos"] = res.Failed
		} else {
			key := cell.Tier + "_ttl" + ttl
			m["hit_"+key] = res.HitRate()
			m["amp_"+key] = res.Amplification()
			m["peak_qps_"+key] = res.PeakUpstreamQPS
		}
		tbl.AddRow(cell.Tier, ttl,
			fmt.Sprintf("%.4f", res.HitRate()),
			fmt.Sprintf("%.4f", res.Amplification()),
			fmt.Sprintf("%.0f", res.PeakUpstreamQPS),
			fmt.Sprintf("%.0f", res.Evictions),
			fmt.Sprintf("%.0f", res.Prefetches),
			fmt.Sprintf("%.0f", res.Failed),
			fmt.Sprintf("%d", res.Lines))
	}
	wall := time.Since(start).Seconds()
	m["wall_seconds"] = wall
	if wall > 0 {
		// Simulated user-seconds per wall-second: the engine's headline.
		m["throughput_user_seconds_per_wall_second"] = userSeconds / wall
	}
	return &Report{
		ID:    "Planet-scale tier",
		Title: "Compiled aggregate arrival-process engine at 1M/10M/100M users",
		Text: tbl.String() + "\n(ttl 300* = chaos cell: 2h outage at 12:00, purge at 18:00; " +
			fmt.Sprintf("total wall %.2fs)", wall),
		Metrics: m,
	}
}
