package dnsttl

// The benchmark harness regenerates every table and figure in the paper's
// evaluation section. Each benchmark runs the corresponding experiment and
// reports the headline quantities via b.ReportMetric, so
// `go test -bench=. -benchmem` prints rows comparable with the paper (see
// EXPERIMENTS.md for the side-by-side).

import (
	"testing"

	"dnsttl/internal/experiments"
)

// benchScale is sized so the full suite completes in a couple of minutes
// while keeping fleets large enough for stable fractions.
func benchScale() ExperimentScale {
	return ExperimentScale{Probes: 600, CrawlScale: 0.25, Resolvers: 500, Seed: 42}
}

func reportMetrics(b *testing.B, r *Report, names ...string) {
	b.Helper()
	for _, n := range names {
		b.ReportMetric(r.Metric(n), n)
	}
}

// BenchmarkTable1ParentChildTTLs regenerates Table 1: the .cl chain's
// parent/child TTL divergence (172800 at the root, 3600/43200 at the child).
func BenchmarkTable1ParentChildTTLs(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.Table1(experiments.NewTestbed(42))
	}
	reportMetrics(b, r, "parent_ns_ttl", "child_ns_ttl", "child_a_ttl")
}

// BenchmarkFigure1UyCentricity regenerates Figure 1 / Table 2 (.uy-NS):
// ~90 % of answers follow the child's 300 s TTL, ~10 % the parent's 2 days.
func BenchmarkFigure1UyCentricity(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.Figure1UyNS(sc.Probes, sc.Seed)
	}
	reportMetrics(b, r, "frac_child_centric", "frac_parent_ttl", "frac_full_parent", "vps")
}

// BenchmarkFigure1UyACentricity regenerates the a.nic.uy-A half of Figure 1.
func BenchmarkFigure1UyACentricity(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.Figure1UyA(sc.Probes, sc.Seed)
	}
	reportMetrics(b, r, "frac_child_centric", "frac_parent_ttl")
}

// BenchmarkFigure2SLDCentricity regenerates Figure 2 (google.co NS): ~70 %
// of answers above the parent's 900 s, ~15 % capped at 21599 s.
func BenchmarkFigure2SLDCentricity(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.Figure2GoogleCo(sc.Probes, sc.Seed)
	}
	reportMetrics(b, r, "frac_over_parent", "frac_capped_21599", "frac_exact_parent")
}

// BenchmarkFigure3NlQueryCounts regenerates Figures 3-4 and the §3.4
// census: ≈52 % of (resolver, qname) groups query more than once in two
// days, and minimum interarrivals bump at one-hour multiples.
func BenchmarkFigure3NlQueryCounts(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.NlPassive(experiments.NlPassiveConfig{Resolvers: sc.Resolvers, Days: 2, Seed: sc.Seed})
	}
	reportMetrics(b, r, "frac_multi_query", "groups", "bump_mass_hour_multiples")
}

// BenchmarkFigure4NlInterarrival is the Figure 4 view of the same passive
// dataset at a smaller population, isolating the interarrival analytics.
func BenchmarkFigure4NlInterarrival(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.NlPassive(experiments.NlPassiveConfig{Resolvers: 250, Days: 2, Seed: 43})
	}
	reportMetrics(b, r, "bump_mass_hour_multiples", "frac_single_but_multi")
}

// BenchmarkFigure6InBailiwick regenerates Figures 6-8 and Tables 3-4: the
// in-bailiwick switch at the NS TTL (60 min) vs out-of-bailiwick at the
// address TTL (120 min), plus the sticky census.
func BenchmarkFigure6InBailiwick(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.BailiwickPair(sc.Probes/2, sc.Workers, sc.Seed)
	}
	reportMetrics(b, r,
		"in_frac_new_after_ns_expiry", "out_frac_new_after_ns_expiry",
		"out_frac_new_after_both_expiry", "out_sticky_frac")
}

// BenchmarkFigure7OutOfBailiwick isolates the out-of-bailiwick campaign.
func BenchmarkFigure7OutOfBailiwick(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.BailiwickPair(150, 0, 44)
	}
	reportMetrics(b, r, "out_frac_new_after_ns_expiry", "out_frac_new_after_both_expiry")
}

// BenchmarkFigure8StickyMatchedVPs reports the matched-VP analysis of §4.5.
func BenchmarkFigure8StickyMatchedVPs(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.BailiwickPair(250, 0, 45)
	}
	reportMetrics(b, r, "f8_matched_frac_switchers", "f8_matched_mean_new_ratio", "out_sticky_vps")
}

// BenchmarkTable5Crawl regenerates Table 5's crawl over the five lists.
func BenchmarkTable5Crawl(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		_, results := experiments.CrawlWorld(sc.CrawlScale, sc.Seed)
		r = experiments.Table5(results)
	}
	reportMetrics(b, r,
		"responsive_ratio_alexa", "responsive_ratio_umbrella",
		"ns_unique_ratio_alexa", "ns_unique_ratio_nl")
}

// BenchmarkFigure9TTLCDFs regenerates the per-type TTL CDFs.
func BenchmarkFigure9TTLCDFs(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		_, results := experiments.CrawlWorld(sc.CrawlScale, sc.Seed)
		r = experiments.Figure9(results)
	}
	reportMetrics(b, r, "root_ns_frac_ge_1day", "umbrella_ns_frac_le_60s", "median_NS_alexa", "median_A_alexa")
}

// BenchmarkTable7ContentTTLs regenerates Tables 6-7: the DMap classes and
// their median TTLs.
func BenchmarkTable7ContentTTLs(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		w, _ := experiments.CrawlWorld(sc.CrawlScale, sc.Seed)
		r = experiments.Tables6And7(w, sc.Seed)
	}
	reportMetrics(b, r,
		"share_placeholder", "median_h_e-commerce_NS", "median_h_parking_NS", "median_h_placeholder_NS")
}

// BenchmarkTable8ZeroTTL regenerates the zero-TTL census.
func BenchmarkTable8ZeroTTL(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		_, results := experiments.CrawlWorld(sc.CrawlScale, sc.Seed)
		r = experiments.Table8(results)
	}
	reportMetrics(b, r, "zero_ttl_alexa", "zero_ttl_nl", "zero_ttl_root")
}

// BenchmarkTable9BailiwickWild regenerates the bailiwick census: >90 %
// out-only for the popular lists, ≈49 % for the root.
func BenchmarkTable9BailiwickWild(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		_, results := experiments.CrawlWorld(sc.CrawlScale, sc.Seed)
		r = experiments.Table9(results)
	}
	reportMetrics(b, r, "percent_out_alexa", "percent_out_nl", "percent_out_root")
}

// BenchmarkFigure10UyBeforeAfter regenerates the .uy natural experiment:
// median latency drops several-fold when the child NS TTL goes from 300 s
// to 86400 s, in every region.
func BenchmarkFigure10UyBeforeAfter(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.Figure10(sc.Probes, sc.Workers, sc.Seed)
	}
	reportMetrics(b, r,
		"median_ms_before", "median_ms_after",
		"p75_ms_before", "p75_ms_after",
		"p95_ms_before", "p95_ms_after",
		"regions_improved")
}

// BenchmarkTable10ControlledTTL regenerates Table 10: the ~77 % query-volume
// cut from long TTLs, unique and shared names.
func BenchmarkTable10ControlledTTL(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.Table10Figure11(sc.Probes/2, sc.Workers, sc.Seed)
	}
	reportMetrics(b, r, "load_reduction_unique", "load_reduction_shared",
		"auth_queries_TTL60-u", "auth_queries_TTL86400-u")
}

// BenchmarkFigure11LatencyCDF reports the Figure 11 medians: caching beats
// anycast at the median (paper: 7.38 ms vs 29.95 ms).
func BenchmarkFigure11LatencyCDF(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.Table10Figure11(sc.Probes/2, sc.Workers, sc.Seed+1)
	}
	reportMetrics(b, r,
		"median_ms_TTL60-u", "median_ms_TTL86400-u",
		"median_ms_TTL60-s", "median_ms_TTL86400-s", "median_ms_TTL60-s-anycast")
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationGlueCoupling toggles the NS/A lifetime coupling.
func BenchmarkAblationGlueCoupling(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationGlueCoupling(150, 0, 42)
	}
	reportMetrics(b, r, "coupled_frac_new_after_ns_expiry", "decoupled_frac_new_after_ns_expiry")
}

// BenchmarkAblationServeStale toggles RFC 8767 under a full outage.
func BenchmarkAblationServeStale(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationServeStale(150, 0, 42)
	}
	reportMetrics(b, r, "valid_frac_serve_stale", "valid_frac_strict")
}

// BenchmarkAblationPrefetch toggles renew-before-expiry.
func BenchmarkAblationPrefetch(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationPrefetch(100, 0, 42)
	}
	reportMetrics(b, r, "hit_frac_prefetch", "hit_frac_plain",
		"auth_queries_prefetch", "auth_queries_plain")
}

// BenchmarkAblationCapStyle contrasts storage- vs serve-time TTL caps.
func BenchmarkAblationCapStyle(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.AblationCapStyle(0, 42)
	}
	reportMetrics(b, r, "at_cap_frac_serve", "at_cap_frac_store")
}

// BenchmarkDNSSECValidationCentricity quantifies the §6.3 structural
// argument: validation collapses the parent-centric answer share.
func BenchmarkDNSSECValidationCentricity(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.ValidationCentricity(300, 0, 42)
	}
	reportMetrics(b, r, "frac_parent_plain", "frac_parent_validating", "frac_child_validating")
}

// BenchmarkHitRateVsTTL validates the analytical cache model against the
// real cache under a Zipf/Poisson workload (Jung et al., the paper's §7).
func BenchmarkHitRateVsTTL(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.HitRateVsTTL(20000, 1, 42)
	}
	reportMetrics(b, r,
		"hit_rate_ttl_60", "model_ttl_60",
		"hit_rate_ttl_1000", "hit_rate_ttl_86400", "hit_rate_1000_over_86400")
}

// BenchmarkOutageSweep quantifies §6.1's resilience claim: availability
// during a 1-hour outage as a function of the record TTL.
func BenchmarkOutageSweep(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.OutageSweep(120, 1, 42)
	}
	reportMetrics(b, r, "avail_ttl_60", "avail_ttl_3600", "avail_ttl_7200", "avail_stale_ttl_60")
}

// BenchmarkPropagationSweep quantifies §6.1's agility claim: a renumbering
// propagates in roughly the record's TTL.
func BenchmarkPropagationSweep(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.PropagationSweep(120, 1, 42)
	}
	reportMetrics(b, r, "lag_min_ttl_60", "lag_min_ttl_600", "lag_min_ttl_3600")
}

// BenchmarkTable2Campaigns regenerates the Table 2 campaign metadata.
func BenchmarkTable2Campaigns(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.Table2(200, 0, 42)
	}
	reportMetrics(b, r, "valid_.uy-NS", "valid_ratio_.uy-NS", "vps_.uy-NS")
}

// BenchmarkParentChildComparison runs the paper's declared future work: the
// full parent-vs-child NS TTL comparison across the five lists.
func BenchmarkParentChildComparison(b *testing.B) {
	sc := benchScale()
	var r *Report
	for i := 0; i < b.N; i++ {
		_, results := experiments.CrawlWorld(sc.CrawlScale, sc.Seed)
		r = experiments.ParentChildComparison(results)
	}
	reportMetrics(b, r,
		"frac_child_shorter_nl", "frac_child_shorter_alexa",
		"median_ratio_alexa", "median_ratio_root")
}

// BenchmarkFarmFragmentation regenerates the resolver-farm sweep (§4.4's
// operational finding): private frontend caches multiply authoritative
// query volume ~linearly with farm size at short TTLs, shared and sharded
// fleet caches keep it flat.
func BenchmarkFarmFragmentation(b *testing.B) {
	var r *Report
	for i := 0; i < b.N; i++ {
		r = experiments.FarmFragmentation(4000, 1, 42)
	}
	reportMetrics(b, r,
		"growth_private_ttl60", "hot_growth_private_ttl60",
		"growth_shared_ttl60", "growth_sharded_ttl60",
		"hit_private_f16_ttl60", "hit_shared_f16_ttl60")
}
