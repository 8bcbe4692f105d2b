package experiments

import (
	"fmt"
	"net/netip"

	"dnsttl/internal/obs"
	"dnsttl/internal/resolver"
	"dnsttl/internal/stats"
)

// HitRateVsTTL validates the analytical cache model against the real cache
// implementation: a Zipf/Poisson client workload drives one resolver while
// the zone's TTL sweeps from seconds to a day, and the measured hit rate is
// compared with the Jung et al. prediction — including their observation
// that TTLs beyond ~1000 s buy little extra.
// Each TTL point builds its own clock, network and resolver, so the sweep
// fans across workers without shared state.
func HitRateVsTTL(queries, workers int, seed int64) *Report {
	if queries <= 0 {
		queries = 20000
	}
	ttls := []uint32{10, 30, 60, 300, 1000, 3600, 14400, 86400}
	const names = 200
	const qps = 2.0

	type point struct {
		measured, predicted float64
		latency, answerTTL  obs.HistogramSnapshot
	}
	pts := Sweep(len(ttls), workers, func(i int) point {
		ttl := ttls[i]
		w := newZipfWorld(zipfPlan{subnet: 30, recordNet: 18}, names, ttl, qps, seed, seed+int64(i))
		res := resolver.New(netip.MustParseAddr("10.30.0.1"), resolver.DefaultPolicy(),
			w.net, w.clock, []netip.Addr{w.rootAddr}, seed)
		// Each point carries its own registry: the latency and answer-TTL
		// distributions come from the telemetry plane, not ad-hoc slices,
		// so a live /metrics scrape of the same setup shows these numbers.
		reg := obs.NewRegistry(w.clock)
		res.Obs = resolver.NewMetrics(reg)

		hits, total := w.replay(res, queries)
		return point{
			measured:  frac(hits, total),
			predicted: w.gen.ExpectedHitRate(ttl),
			latency:   reg.Histogram(resolver.MetricLatency).Snapshot(),
			answerTTL: reg.Histogram(resolver.MetricAnswerTTL).Snapshot(),
		}
	})
	measured := make([]float64, len(ttls))
	predicted := make([]float64, len(ttls))
	for i, p := range pts {
		measured[i], predicted[i] = p.measured, p.predicted
	}

	tbl := &stats.Table{Title: fmt.Sprintf("Cache hit rate vs TTL (Zipf s=1, %d names, %.1f q/s, %s queries per point)",
		names, qps, stats.FormatCount(queries)),
		Header: []string{"TTL (s)", "measured", "model λT/(1+λT)",
			"lat p50 (ms)", "lat p90 (ms)", "lat p99 (ms)", "ans TTL p50 (s)"}}
	m := map[string]float64{}
	for i, ttl := range ttls {
		lat, att := pts[i].latency, pts[i].answerTTL
		tbl.AddRow(fmt.Sprintf("%d", ttl),
			fmt.Sprintf("%.3f", measured[i]), fmt.Sprintf("%.3f", predicted[i]),
			fmt.Sprintf("%.1f", lat.P50), fmt.Sprintf("%.1f", lat.P90),
			fmt.Sprintf("%.1f", lat.P99), fmt.Sprintf("%.0f", att.P50))
		m[fmt.Sprintf("hit_rate_ttl_%d", ttl)] = measured[i]
		m[fmt.Sprintf("model_ttl_%d", ttl)] = predicted[i]
		m[fmt.Sprintf("lat_p50_ms_ttl_%d", ttl)] = lat.P50
		m[fmt.Sprintf("lat_p90_ms_ttl_%d", ttl)] = lat.P90
		m[fmt.Sprintf("lat_p99_ms_ttl_%d", ttl)] = lat.P99
		m[fmt.Sprintf("answer_ttl_p50_ttl_%d", ttl)] = att.P50
	}
	m["hit_rate_1000_over_86400"] = 0
	if measured[len(ttls)-1] > 0 {
		for i, ttl := range ttls {
			if ttl == 1000 {
				m["hit_rate_1000_over_86400"] = measured[i] / measured[len(ttls)-1]
			}
		}
	}

	return &Report{
		ID:      "Hit-rate model",
		Title:   "Measured cache hit rates track the Jung et al. TTL model; benefits saturate near 1000 s",
		Text:    tbl.String(),
		Metrics: m,
	}
}
