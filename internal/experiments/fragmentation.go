package experiments

import (
	"fmt"
	"net/netip"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/farm"
	"dnsttl/internal/obs"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/stats"
)

// farmPlan is the address plan of the farm experiments' worlds.
var farmPlan = zipfPlan{subnet: 40, recordNet: 18}

// FarmFragmentation reproduces the paper's §4.4 operational finding as a
// controlled sweep: a fixed Zipf/Poisson client stream is served by a
// resolver farm of 1, 4, and 16 frontends under each cache topology, at a
// short and a long zone TTL. With private per-frontend caches the
// authoritative query volume grows with the farm size — each frontend must
// fetch every record for itself, which is why short TTLs behind large
// public resolvers translate into fleet-sized load multipliers — while the
// shared and hash-partitioned sharded topologies keep it flat, and the
// effective hit rate clients see stays near the single-resolver figure.
// The TTL × farm-size × topology grid is fanned across workers; every cell
// rebuilds its own world from the same seed, so cells are independent and
// the report does not depend on the worker count.
func FarmFragmentation(queries, workers int, seed int64) *Report {
	if queries <= 0 {
		queries = 4000
	}
	ttls := []uint32{60, 3600}
	frontCounts := []int{1, 4, 16}
	topos := []farm.Topology{farm.Private, farm.Shared, farm.Sharded}
	const names = 150
	const qps = 8.0

	type cell struct {
		auth    uint64
		hot     uint64
		rates   farm.Rates
		latency obs.HistogramSnapshot
	}
	ck := func(topo farm.Topology, nf int, ttl uint32) string {
		return fmt.Sprintf("%s_f%d_ttl%d", topo, nf, ttl)
	}

	type config struct {
		ttl  uint32
		nf   int
		topo farm.Topology
	}
	var grid []config
	for _, ttl := range ttls {
		for _, nf := range frontCounts {
			for _, topo := range topos {
				grid = append(grid, config{ttl: ttl, nf: nf, topo: topo})
			}
		}
	}
	cells := Sweep(len(grid), workers, func(i int) cell {
		cfg := grid[i]
		// Every cell replays the identical arrival stream: the world (and
		// its generator) is rebuilt from the same seed.
		w := newZipfWorld(farmPlan, names, cfg.ttl, qps, seed, seed)
		// hot counts authoritative fetches of the most popular name — the
		// record whose per-farm fetch rate the paper's fragmentation
		// argument predicts scales linearly with the frontend count.
		var hot uint64
		hotName := w.gen.Names[0]
		var m dnswire.Message
		w.net.Tap = func(ev simnet.TapEvent) {
			if ev.Dst != w.orgAddr {
				return
			}
			if tapDecode(&m, ev.Query) && len(m.Question) > 0 && m.Q().Name == hotName {
				hot++
			}
		}
		// The cell's fleet reports through its own registry, so the hit
		// rates and client-latency quantiles below are the same numbers a
		// resolverd built on this farm would serve at /metrics.
		reg := obs.NewRegistry(w.clock)
		fm := farm.New(farm.Config{
			Frontends: cfg.nf,
			Topology:  cfg.topo,
			Coalesce:  true,
			Policy:    resolver.DefaultPolicy(),
			Seed:      seed,
			Registry:  reg,
		}, netip.MustParseAddr("10.40.0.1"), w.net, w.clock, []netip.Addr{w.rootAddr})

		w.replay(fm, queries)
		return cell{
			auth:    w.rootSrv.QueryCount() + w.orgSrv.QueryCount(),
			hot:     hot,
			rates:   fm.Stats().Rates(),
			latency: reg.Histogram(resolver.MetricLatency).Snapshot(),
		}
	})
	results := make(map[string]cell, len(grid))
	for i, cfg := range grid {
		results[ck(cfg.topo, cfg.nf, cfg.ttl)] = cells[i]
	}

	tbl := &stats.Table{
		Title: fmt.Sprintf("Authoritative query volume and fleet hit rate vs farm size (Zipf s=1, %d names, %.0f q/s, %s queries per cell)",
			names, qps, stats.FormatCount(queries)),
		Header: []string{"TTL (s)", "frontends",
			"auth private", "auth shared", "auth sharded",
			"hit private", "hit shared", "hit sharded",
			"p50 private", "p50 shared", "p50 sharded"},
	}
	m := map[string]float64{}
	for _, ttl := range ttls {
		for _, nf := range frontCounts {
			row := []string{fmt.Sprintf("%d", ttl), fmt.Sprintf("%d", nf)}
			for _, topo := range topos {
				c := results[ck(topo, nf, ttl)]
				row = append(row, fmt.Sprintf("%d", c.auth))
				m[fmt.Sprintf("auth_%s", ck(topo, nf, ttl))] = float64(c.auth)
				m[fmt.Sprintf("hot_%s", ck(topo, nf, ttl))] = float64(c.hot)
				m[fmt.Sprintf("hit_%s", ck(topo, nf, ttl))] = c.rates.Hit
				m[fmt.Sprintf("lat_p50_ms_%s", ck(topo, nf, ttl))] = c.latency.P50
				m[fmt.Sprintf("lat_p99_ms_%s", ck(topo, nf, ttl))] = c.latency.P99
			}
			for _, topo := range topos {
				row = append(row, fmt.Sprintf("%.3f", results[ck(topo, nf, ttl)].rates.Hit))
			}
			for _, topo := range topos {
				row = append(row, fmt.Sprintf("%.1f", results[ck(topo, nf, ttl)].latency.P50))
			}
			tbl.AddRow(row...)
		}
	}
	// Headline growth factors: authoritative volume at 16 frontends over
	// the single-resolver volume, per topology — total, and for the most
	// popular name alone, where the fragmentation multiplier is closest to
	// the frontend count (tail names are dominated by compulsory misses).
	for _, ttl := range ttls {
		for _, topo := range topos {
			base, big := results[ck(topo, 1, ttl)], results[ck(topo, 16, ttl)]
			g, hg := 0.0, 0.0
			if base.auth > 0 {
				g = float64(big.auth) / float64(base.auth)
			}
			if base.hot > 0 {
				hg = float64(big.hot) / float64(base.hot)
			}
			m[fmt.Sprintf("growth_%s_ttl%d", topo, ttl)] = g
			m[fmt.Sprintf("hot_growth_%s_ttl%d", topo, ttl)] = hg
		}
	}

	return &Report{
		ID:      "Farm fragmentation",
		Title:   "Private frontend caches multiply authoritative load at short TTLs; shared/sharded farm caches keep it flat",
		Text:    tbl.String(),
		Metrics: m,
	}
}
