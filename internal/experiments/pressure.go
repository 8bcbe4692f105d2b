package experiments

import (
	"fmt"
	"net/netip"

	"dnsttl/internal/cache"
	"dnsttl/internal/resolver"
	"dnsttl/internal/stats"
)

// The cache-pressure sweep extends the paper's hit-rate-vs-TTL analysis
// (§4, Tables 4–5) into the memory-bounded regime real resolvers operate
// in: when the cache cannot hold the working set, eviction — not TTL expiry
// — limits the hit rate, and the eviction policy decides how much of the
// paper's TTL effect survives. The grid crosses cache size (MaxBytes) ×
// record TTL × eviction policy under one Zipf/Poisson workload, plus
// refresh-ahead rows showing prefetch recovering hit rate at short TTLs.
//
// Every cell builds its own clock, network, zones, and resolver and replays
// the identical query stream, so cells are comparable point-for-point and
// the sweep is deterministic at any worker count. The JSON report is
// integer-only and golden-pinned in testdata/pressure_golden.json.

// PressureCell is one grid point's outcome. Counters are integers (hit rate
// is reported per-mille) so the JSON encoding is byte-stable.
type PressureCell struct {
	Policy           cache.EvictionPolicy `json:"policy"`
	MaxKB            int                  `json:"max_kb"`
	TTL              int                  `json:"ttl_s"`
	Prefetch         bool                 `json:"prefetch"`
	Answered         int                  `json:"answered"`
	Hits             int                  `json:"hits"`
	HitPerMille      int                  `json:"hit_per_mille"`
	Evictions        int                  `json:"evictions"`
	AdmissionRejects int                  `json:"admission_rejects"`
	Prefetches       int                  `json:"prefetches"`
	AuthQueries      int                  `json:"auth_queries"`
	FinalEntries     int                  `json:"final_entries"`
	FinalBytes       int                  `json:"final_bytes"`
}

// PressureReport is the sweep's full outcome, in grid order: sizes outer,
// TTLs middle, policies inner, refresh-ahead rows last.
type PressureReport struct {
	Seed    int            `json:"seed"`
	Queries int            `json:"queries_per_cell"`
	Names   int            `json:"names"`
	Cells   []PressureCell `json:"cells"`
}

// JSON renders the report in the golden format.
func (r *PressureReport) JSON() []byte { return goldenJSON(r) }

// Cell finds a grid point by coordinates (nil if absent).
func (r *PressureReport) Cell(policy cache.EvictionPolicy, maxKB, ttl int, prefetch bool) *PressureCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Policy == policy && c.MaxKB == maxKB && c.TTL == ttl && c.Prefetch == prefetch {
			return c
		}
	}
	return nil
}

// The sweep grid. Sizes are chosen against the workload's ~1200-name
// working set (roughly 190 KB of A records at pressureNames): 32 KB holds
// ~15 % of it and eviction binds at every TTL; 96 KB holds ~45 % and binds
// only at TTL 300 — at TTL 30 and 60 the fresh entries fit, evictions
// reclaim expired ones, and the three policies read alike (the cells
// validate.go classes as unpressured).
var (
	pressureTTLs     = []uint32{30, 60, 300}
	pressureSizes    = []int64{32 << 10, 96 << 10}
	pressurePolicies = []cache.EvictionPolicy{cache.EvictFIFO, cache.EvictLRU, cache.EvictSLRU}
)

const (
	pressureNames = 1200
	pressureQPS   = 24.0
	// pressurePrefetchTTL is the TTL at which the refresh-ahead rows run —
	// short enough that expiry misses dominate without prefetch.
	pressurePrefetchTTL uint32 = 60
)

// pressureSpec is one grid point's configuration.
type pressureSpec struct {
	policy   cache.EvictionPolicy
	maxBytes int64
	ttl      uint32
	prefetch bool
}

func pressureSpecs() []pressureSpec {
	var specs []pressureSpec
	for _, size := range pressureSizes {
		for _, ttl := range pressureTTLs {
			for _, p := range pressurePolicies {
				specs = append(specs, pressureSpec{policy: p, maxBytes: size, ttl: ttl})
			}
		}
	}
	// Refresh-ahead rows: LRU at the short-TTL cell, where expiry misses
	// are the dominant loss and prefetch has the most to recover.
	for _, size := range pressureSizes {
		specs = append(specs, pressureSpec{
			policy: cache.EvictLRU, maxBytes: size, ttl: pressurePrefetchTTL, prefetch: true,
		})
	}
	return specs
}

// pressurePlan is the address plan of a pressure cell's world. The
// model-validation probe (validate.go) builds the identical world to
// measure byte overheads, and charges per cache entry what pressurePlan's
// record costs on the wire (cache.EntryCharge).
var pressurePlan = zipfPlan{subnet: 31, recordNet: 19}

// pressureCell replays the workload against one grid point. Every cell uses
// the same workload seed, so all cells face the identical query stream and
// differ only in cache configuration.
func pressureCell(spec pressureSpec, queries int, seed int64) PressureCell {
	w := newZipfWorld(pressurePlan, pressureNames, spec.ttl, pressureQPS, seed, seed)
	pol := resolver.DefaultPolicy()
	if spec.prefetch {
		pol.PrefetchFraction = 0.5
	}
	res := resolver.New(netip.MustParseAddr("10.31.0.1"), pol,
		w.net, w.clock, []netip.Addr{w.rootAddr}, seed)
	ccfg := pol.CacheConfig()
	ccfg.MaxBytes = spec.maxBytes
	// An entry costs at least ~130 bytes here, so bytes bind well before
	// this count bound; it only sizes the SLRU segments and sketch.
	ccfg.Capacity = int(spec.maxBytes / 100)
	ccfg.Eviction = spec.policy
	res.Cache = cache.New(w.clock, ccfg)

	hits, answered := w.replay(res, queries)

	st := res.Cache.Stats()
	cell := PressureCell{
		Policy:           spec.policy,
		MaxKB:            int(spec.maxBytes >> 10),
		TTL:              int(spec.ttl),
		Prefetch:         spec.prefetch,
		Answered:         answered,
		Hits:             hits,
		Evictions:        int(st.Evictions),
		AdmissionRejects: int(st.AdmissionRejects),
		Prefetches:       int(st.Prefetches),
		AuthQueries:      int(w.rootSrv.QueryCount() + w.orgSrv.QueryCount()),
		FinalEntries:     st.Entries,
		FinalBytes:       int(st.Bytes),
	}
	if answered > 0 {
		cell.HitPerMille = hits * 1000 / answered
	}
	return cell
}

// PressureRun sweeps the full grid, fanning cells across workers. The
// report is identical at any worker count: each cell builds its own world
// and no state crosses cells.
func PressureRun(queries, workers int, seed int64) *PressureReport {
	if queries <= 0 {
		queries = 4000
	}
	specs := pressureSpecs()
	cells := Sweep(len(specs), workers, func(i int) PressureCell {
		return pressureCell(specs[i], queries, seed)
	})
	return &PressureReport{
		Seed: int(seed), Queries: queries, Names: pressureNames, Cells: cells,
	}
}

// CachePressure wraps the sweep into the standard Report shape for the
// experiment runner ("cache-pressure").
func CachePressure(queries, workers int, seed int64) *Report {
	rep := PressureRun(queries, workers, seed)

	tbl := &stats.Table{
		Title: fmt.Sprintf("Hit rate under memory pressure (Zipf s=1, %d names, %.0f q/s, %s queries per cell)",
			rep.Names, pressureQPS, stats.FormatCount(rep.Queries)),
		Header: []string{"policy", "bound (KB)", "TTL (s)", "prefetch", "hit rate",
			"evictions", "adm. rejects", "prefetches", "auth queries", "final KB"},
	}
	m := map[string]float64{}
	for _, c := range rep.Cells {
		pf := ""
		key := fmt.Sprintf("hit_%s_%dkb_ttl%d", c.Policy, c.MaxKB, c.TTL)
		if c.Prefetch {
			pf = "yes"
			key = fmt.Sprintf("hit_%s_pf_%dkb_ttl%d", c.Policy, c.MaxKB, c.TTL)
		}
		tbl.AddRow(c.Policy.String(), fmt.Sprintf("%d", c.MaxKB), fmt.Sprintf("%d", c.TTL), pf,
			fmt.Sprintf("%.3f", float64(c.HitPerMille)/1000),
			stats.FormatCount(c.Evictions), stats.FormatCount(c.AdmissionRejects),
			stats.FormatCount(c.Prefetches), stats.FormatCount(c.AuthQueries),
			fmt.Sprintf("%d", c.FinalBytes>>10))
		m[key] = float64(c.HitPerMille) / 1000
		m[key+"_auth_queries"] = float64(c.AuthQueries)
	}

	// Headline deltas: the worst-case LRU-over-FIFO margin across the grid,
	// and the refresh-ahead lift at the short-TTL cells.
	minLRUGain := 1.0
	for _, size := range pressureSizes {
		for _, ttl := range pressureTTLs {
			kb, t := int(size>>10), int(ttl)
			fifo := rep.Cell(cache.EvictFIFO, kb, t, false)
			lru := rep.Cell(cache.EvictLRU, kb, t, false)
			if fifo != nil && lru != nil {
				if gain := float64(lru.HitPerMille-fifo.HitPerMille) / 1000; gain < minLRUGain {
					minLRUGain = gain
				}
			}
		}
		kb := int(size >> 10)
		plain := rep.Cell(cache.EvictLRU, kb, int(pressurePrefetchTTL), false)
		pf := rep.Cell(cache.EvictLRU, kb, int(pressurePrefetchTTL), true)
		if plain != nil && pf != nil {
			m[fmt.Sprintf("prefetch_lift_%dkb_ttl%d", kb, pressurePrefetchTTL)] =
				float64(pf.HitPerMille-plain.HitPerMille) / 1000
		}
	}
	m["lru_over_fifo_min_gain"] = minLRUGain

	return &Report{
		ID:      "Cache pressure",
		Title:   "Under a byte bound, eviction policy sets the hit rate; LRU beats FIFO everywhere and refresh-ahead recovers short-TTL misses",
		Text:    tbl.String(),
		Metrics: m,
	}
}
