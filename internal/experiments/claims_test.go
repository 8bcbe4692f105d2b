package experiments

import (
	"cmp"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dnsttl/internal/core"
	"dnsttl/internal/population"
	"dnsttl/internal/race"
	"dnsttl/internal/zone"
)

// A claim is one verdict row of EXPERIMENTS.md: its label, the paper's
// value, a note, and a check — comparisons `metric op [k*]other [± c]` or
// `metric op c` (op < <= > >= ==) joined by "&&", over one run's metrics.
type claim struct{ label, paper, note, check string }

// A claimRow is one experiment's driver at the claim scale EXPERIMENTS.md
// names, as a function of the seed, and the claims its metrics decide.
type claimRow struct {
	id     string
	run    func(seed int64) map[string]float64
	claims []claim
}

// claimRows holds every paper claim the reproduction is accountable for.
// A new claim is one line here plus -update.
var claimRows = []claimRow{
	{"table1", func(s int64) map[string]float64 { return Table1(NewTestbed(s)).Metrics }, []claim{{"NS TTL at the root (parent) / at the child; a.nic.cl A at the child", "172800 / 3600 / 43200", "the parent's by construction", "parent_ns_ttl == 172800 && child_ns_ttl == 3600 && child_a_ttl == 43200"}}},
	{"table2", func(s int64) map[string]float64 { return Table2(60, 1, s).Metrics }, []claim{{"valid-response ratio: .uy-NS / a.nic.uy-A / google.co-NS / .uy-NS-new", "", "", "valid_ratio_.uy-NS >= 0.95 && valid_ratio_a.nic.uy-A >= 0.95 && valid_ratio_google.co-NS >= 0.95 && valid_ratio_.uy-NS-new >= 0.95"}}},
	{"figure1a", func(s int64) map[string]float64 {
		uy := core.ZoneConfig{ParentNSTTL: 172800, ChildNSTTL: 300}
		return withPrediction(Figure1UyNS(250, s).Metrics, "frac_child_centric", core.EffectiveNSTTL(uy, population.DefaultMix()), func(ttl uint32) bool { return ttl <= uy.ChildNSTTL })
	}, []claim{
		{".uy-NS answers at/below child TTL", "~90 %", "", "frac_child_centric >= 0.8 && frac_child_centric <= 0.97"},
		{".uy-NS parent-side answers", "~10 %", "", "frac_parent_ttl >= 0.03 && frac_parent_ttl <= 0.2"},
		{".uy-NS answers at the full 172800 s", "2.9 %", "full-TTL sightings are first-contact misses; our shared parent-centric caches stay warm longer than OpenDNS's fragmented fleet", "frac_full_parent > 0 && frac_full_parent <= 0.1"},
		{".uy-NS answers above the parent TTL", "~1 VP", "", "frac_over_parent <= 0.001"},
		{"valid .uy-NS responses", "", "", "valid_responses >= 1000"},
		{"advisor: .uy-NS child-centric share, measured / core.EffectiveNSTTL over DefaultMix", "", "within 0.05", "frac_child_centric >= core_frac_child_centric - 0.05 && frac_child_centric <= core_frac_child_centric + 0.05"},
	}},
	{"figure1b", func(s int64) map[string]float64 { return Figure1UyA(200, s).Metrics }, []claim{{"a.nic.uy-A answers at/below child TTL", "~88 %", "", "frac_child_centric >= 0.8"}}},
	{"figure2", func(s int64) map[string]float64 {
		googleCo := core.ZoneConfig{ParentNSTTL: 900, ChildNSTTL: 345600}
		return withPrediction(Figure2GoogleCo(250, s).Metrics, "frac_over_parent", core.EffectiveNSTTL(googleCo, population.DefaultMix()), func(ttl uint32) bool { return ttl > googleCo.ParentNSTTL })
	}, []claim{
		{"answers above 900 s (child data)", "~70 %", "direction: our population (population.DefaultMix) is 92.5 % child-centric; the paper's 70 % includes probes behind mixed forwarder chains we do not model", "frac_over_parent >= 0.6 && frac_over_parent <= 0.98"},
		{"answers exactly 21599 s (Google cap)", "~15 %", "", "frac_capped_21599 >= 0.05 && frac_capped_21599 <= 0.3"},
		{"answers exactly 900 s (fresh parent)", "~9 %", "presence; magnitude depends on parent-centric refresh cadence", "frac_exact_parent > 0 && frac_exact_parent <= 0.25"},
		{"advisor: google.co-NS answers above 900 s, measured / core.EffectiveNSTTL over DefaultMix", "", "within 0.05", "frac_over_parent >= core_frac_over_parent - 0.05 && frac_over_parent <= core_frac_over_parent + 0.05"},
	}},
	{"figures3-4", func(s int64) map[string]float64 {
		return NlPassive(NlPassiveConfig{Resolvers: 200, Days: 2, Seed: s}).Metrics
	}, []claim{
		{"(resolver, qname) groups", "", "", "groups >= 50"},
		{"groups with >1 query", "52 %", "direction: a majority is multi-query; the exact split tracks the demand sparsity mix", "frac_multi_query >= 0.3 && frac_multi_query <= 0.75"},
		{"single-query groups whose resolver is multi elsewhere", "~14 %", "", "frac_single_but_multi > 0"},
		{"minimum interarrivals within ±5 min of hour multiples", "visible bumps", "", "bump_mass_hour_multiples >= 0.2"},
	}},
	{"figures6-8", func(s int64) map[string]float64 {
		// world.go's ConfigureSub: NS 3600 s on both sides, the server's
		// address 7200 s in the glue and in the child.
		sub := core.ZoneConfig{ParentNSTTL: 3600, ChildNSTTL: 3600, ParentGlueTTL: 7200, ChildAddrTTL: 7200, Bailiwick: zone.BailiwickInOnly}
		return withPrediction(BailiwickPair(150, 1, s).Metrics, "in_frac_new_after_ns_expiry", core.EffectiveAddrTTL(sub, population.DefaultMix()), func(ttl uint32) bool { return ttl <= sub.ChildNSTTL })
	}, []claim{
		{"in-bailiwick: new content before NS expiry (t<60 min)", "~0 (growing tail)", "the tail is cold frontends of shared public resolvers meeting the new glue first", "in_frac_new_before_ns_expiry <= 0.15"},
		{"in-bailiwick: switched during 60-120 min (A still valid!)", "~90 %", "the NS/A coupling", "in_frac_new_after_ns_expiry >= 0.7"},
		{"out-of-bailiwick: switched during 60-120 min", "~0", "the A survives the NS", "out_frac_new_after_ns_expiry <= 0.35"},
		{"out-of-bailiwick: switched after 120 min", "most", "", "out_frac_new_after_both_expiry >= 0.6"},
		{"switched during 60-120 min, in- / out-of-bailiwick", "in switches a TTL earlier", "", "in_frac_new_after_ns_expiry > out_frac_new_after_ns_expiry"},
		{"VPs on the old server at the end (sticky), out / in", "17.8 % / 2.25 %", "ordering: out-stickiness is mostly parent-centricity", "out_sticky_vps > in_sticky_vps"},
		{"out-of-bailiwick sticky VPs, count / share (Table 4)", "1642 / ≈10-18 %", "", "out_sticky_vps > 0 && out_sticky_frac <= 0.3"},
		{"matched sticky VPs fetching mostly new content in-bailiwick (Figure 8)", "most", "", "f8_matched_frac_switchers >= 0.3"},
		{"advisor: in-bailiwick switched during 60-120 min, measured / core.EffectiveAddrTTL over DefaultMix", "", "within 0.05; the closed form runs high because stickiness (2.25 % of DefaultMix) is server choice, not a lifetime", "in_frac_new_after_ns_expiry >= core_in_frac_new_after_ns_expiry - 0.05 && in_frac_new_after_ns_expiry <= core_in_frac_new_after_ns_expiry + 0.05"},
	}},
	{"offline", func(s int64) map[string]float64 { return OfflineChild(200, s).Metrics }, []claim{
		{"valid answers for NS of the dead zone: OpenDNS- / BIND- / Unbound-style", "yes, from parent data / no / no", "", "valid_frac_opendns-like >= 0.9 && valid_frac_bind-like <= 0.1 && valid_frac_unbound-like <= 0.1"},
	}},
	{"crawl", func(s int64) map[string]float64 {
		w, res := CrawlWorld(0.05, s)
		m := Tables6And7(w, s).Metrics
		for _, r := range []*Report{Table5(res), Table8(res), Table9(res), Figure9(res)} {
			maps.Copy(m, r.Metrics)
		}
		return m
	}, []claim{
		{"Table 5: Umbrella responsive ratio", ".78", "", "responsive_ratio_umbrella >= 0.70 && responsive_ratio_umbrella <= 0.86"},
		{"Table 5: NS unique-record ratio, .nl / Alexa", "190 / 9.19", ".nl within an order of magnitude; it grows with list size", "ns_unique_ratio_nl > ns_unique_ratio_alexa && ns_unique_ratio_nl >= 19 && ns_unique_ratio_nl <= 1900"},
		{"Table 6: .nl domains classified / placeholder share", "— / 81.3 %", "", "classified_total > 0 && share_placeholder >= 0.7"},
		{"Table 7: median NS TTL (h), parking / e-commerce", "24 / 4", "", "median_h_parking_NS > median_h_e-commerce_NS"},
		{"Table 7: median NS TTL (h), e-commerce / parking / placeholder", "4 / 24 / 4", "", "median_h_e-commerce_NS == 4 && median_h_parking_NS == 24 && median_h_placeholder_NS == 4"},
		{"Table 7: median A TTL (h), e-commerce / parking / placeholder", "1 / 1 / 1", "", "median_h_e-commerce_A == 1 && median_h_parking_A == 1 && median_h_placeholder_A == 1"},
		{"Table 7: median AAAA TTL (h), e-commerce / parking / placeholder", "0.1 / 1 / 4", "", "median_h_e-commerce_AAAA == 0.1 && median_h_parking_AAAA == 1 && median_h_placeholder_AAAA == 4"},
		{"Table 7: median DNSKEY TTL (h), e-commerce / parking / placeholder", "1 / 24 / 4", "", "median_h_e-commerce_DNSKEY == 1 && median_h_parking_DNSKEY == 24 && median_h_placeholder_DNSKEY == 4"},
		{"Table 8: zero-TTL domains, Alexa / root", "5385 / 0", "", "zero_ttl_alexa > 0 && zero_ttl_root == 0"},
		{"Table 9: percent out-only, Alexa / root", "95.0 / 48.7", "", "percent_out_alexa >= 85 && percent_out_root >= 35 && percent_out_root <= 62"},
		{"Figure 9: root NS TTLs at 1-2 days", "~80 %", "", "root_ns_frac_ge_1day >= 0.65"},
		{"Figure 9: Umbrella NS TTLs under a minute", "~25 %", "", "umbrella_ns_frac_le_60s >= 0.12"},
		{"Figure 9: median TTL (s), NS / A on Alexa, Majestic, Umbrella, .nl", "NS longest-lived, addresses shortest", "", "median_NS_alexa > median_A_alexa && median_NS_majestic > median_A_majestic && median_NS_umbrella > median_A_umbrella && median_NS_nl > median_A_nl"},
	}},
	{"figure10", func(s int64) map[string]float64 { return Figure10(200, 1, s).Metrics }, []claim{
		{"median RTT before / after (ms)", "28.7 / 8 (3.6×)", "at least 2×; our \"before\" is costlier because a 300 s NS TTL forces a full re-walk each round, while the real .uy had 8 NS records and anycast roots softening misses", "median_ms_before >= 2*median_ms_after"},
		{"p75, p95, p99 before / after (ms)", "183 / 21, 450 / 200, 1375 / 678", "every tail shrinks", "p75_ms_before > p75_ms_after && p95_ms_before > p95_ms_after && p99_ms_before > p99_ms_after"},
		{"regions improved / measured (Fig. 10b)", "all", "", "regions_improved == regions_measured && regions_measured >= 4"},
	}},
	{"table10", func(s int64) map[string]float64 { return Table10Figure11(150, 1, s).Metrics }, []claim{
		{"authoritative load cut by long TTLs, unique / shared", "66 % (127k→43k) / 78 % (92k→20k)", "about 77 %", "load_reduction_unique >= 0.5 && load_reduction_unique <= 0.95 && load_reduction_shared >= 0.5 && load_reduction_shared <= 0.99"},
		{"median RTT unique (ms): TTL86400 / TTL60", "9.68 / 49.28", "less than half", "median_ms_TTL86400-u < 0.5*median_ms_TTL60-u"},
		{"median RTT shared (ms): TTL86400 / TTL60", "7.38 / 35.59", "less than half", "median_ms_TTL86400-s < 0.5*median_ms_TTL60-s"},
		{"median RTT (ms): caching / anycast", "7.38 / 29.95", "caching wins: the §6.2 headline", "median_ms_TTL86400-s < median_ms_TTL60-s-anycast"},
		{"p95 RTT (ms), TTL 60: anycast / unicast", "p75 67 / 106", "anycast helps the tail", "p95_ms_TTL60-s-anycast < p95_ms_TTL60-s"},
	}},
	{"ablation-glue", func(s int64) map[string]float64 { return AblationGlueCoupling(80, 1, s).Metrics }, []claim{
		{"new content during 60-120 min, coupled", "~90 % (§4.2 majority)", "", "coupled_frac_new_after_ns_expiry >= 0.9"},
		{"new content, decoupled: during 60-120 min / after the A expires", "~0 (§4.2 minority)", "", "decoupled_frac_new_after_ns_expiry <= 0.1 && decoupled_frac_new_after_a_expiry >= 0.9"},
	}},
	{"ablation-stale", func(s int64) map[string]float64 { return AblationServeStale(80, 1, s).Metrics }, []claim{
		{"availability in an outage, serve-stale / strict TTL; stale answers", "", "", "valid_frac_serve_stale >= 0.8 && valid_frac_strict <= 0.2 && stale_answers > 0"},
	}},
	{"ablation-prefetch", func(s int64) map[string]float64 { return AblationPrefetch(60, 1, s).Metrics }, []claim{
		{"hit rate, then authoritative queries, prefetch / plain", "", "", "hit_frac_prefetch > hit_frac_plain && auth_queries_prefetch > auth_queries_plain"},
	}},
	{"ablation-cap", func(s int64) map[string]float64 { return AblationCapStyle(1, s).Metrics }, []claim{
		{"answers at exactly 21599 s, serve-time / storage cap", "the Google signature (§3.3)", "storage caps show decayed values", "at_cap_frac_serve >= 0.95 && at_cap_frac_store < at_cap_frac_serve"},
	}},
	{"dnssec", func(s int64) map[string]float64 { return ValidationCentricity(150, 1, s).Metrics }, []claim{
		{"parent-TTL answer share, plain", "", "", "frac_parent_plain >= 0.03"},
		{"parent-TTL answer share, validating / plain; child-TTL share, validating", "", "validation collapses it (§6.3)", "frac_parent_validating <= 0.5*frac_parent_plain && frac_child_validating >= 0.95"},
	}},
	{"hitrate", func(s int64) map[string]float64 { return HitRateVsTTL(6000, 1, s).Metrics }, []claim{
		{"hit rate, TTL 10 / 60 / 1000 / 86400 s; 1000 s over 86400 s", "most of the benefit by 1000 s [27]", "monotone in TTL", "hit_rate_ttl_10 <= hit_rate_ttl_60 && hit_rate_ttl_60 <= hit_rate_ttl_1000 && hit_rate_ttl_1000 <= hit_rate_ttl_86400 && hit_rate_1000_over_86400 >= 0.75"},
		{"hit rate / λT/(1+λT) model, TTL 60 s", "Jung et al. [27]", "within 0.08", "hit_rate_ttl_60 <= model_ttl_60 + 0.08 && hit_rate_ttl_60 >= model_ttl_60 - 0.08"},
		{"hit rate / λT/(1+λT) model, TTL 300 s", "Jung et al. [27]", "within 0.08", "hit_rate_ttl_300 <= model_ttl_300 + 0.08 && hit_rate_ttl_300 >= model_ttl_300 - 0.08"},
		{"hit rate / λT/(1+λT) model, TTL 1000 s", "Jung et al. [27]", "within 0.08", "hit_rate_ttl_1000 <= model_ttl_1000 + 0.08 && hit_rate_ttl_1000 >= model_ttl_1000 - 0.08"},
		{"hit rate / λT/(1+λT) model, TTL 3600 s", "Jung et al. [27]", "within 0.08", "hit_rate_ttl_3600 <= model_ttl_3600 + 0.08 && hit_rate_ttl_3600 >= model_ttl_3600 - 0.08"},
	}},
	{"outage-sweep", func(s int64) map[string]float64 { return OutageSweep(60, 1, s).Metrics }, []claim{
		{"1 h outage availability, TTL 60 / 600 / 1800 / 3600 / 7200 s", "", "monotone within 0.05, ≤ 0.2 at 60 s, ≥ 0.7 at 7200 s: TTLs must be longer than the attack [36]", "avail_ttl_60 <= 0.2 && avail_ttl_60 <= avail_ttl_600 + 0.05 && avail_ttl_600 <= avail_ttl_1800 + 0.05 && avail_ttl_1800 <= avail_ttl_3600 + 0.05 && avail_ttl_3600 <= avail_ttl_7200 + 0.05 && avail_ttl_7200 >= 0.7"},
		{"1 h outage availability, serve-stale at TTL 60 s", "", "", "avail_stale_ttl_60 >= 0.9"},
		{"70 % loss + 3× latency, TTL 60 / 600 / 1800 / 3600 / 7200 s", "", "monotone within 0.05, 7200 s beats 60 s by 0.2", "avail_partial_ttl_60 <= avail_partial_ttl_600 + 0.05 && avail_partial_ttl_600 <= avail_partial_ttl_1800 + 0.05 && avail_partial_ttl_1800 <= avail_partial_ttl_3600 + 0.05 && avail_partial_ttl_3600 <= avail_partial_ttl_7200 + 0.05 && avail_partial_ttl_7200 >= avail_partial_ttl_60 + 0.2"},
		{"70 % loss, retries / single shot, TTL 60 s", "", "a clear 0.2 margin", "avail_partial_retry_ttl_60 >= avail_partial_ttl_60 + 0.2"},
		{"70 % loss, retries / single shot, TTL 600, 1800, 3600 s", "", "retries never hurt", "avail_partial_retry_ttl_600 >= avail_partial_ttl_600 && avail_partial_retry_ttl_1800 >= avail_partial_ttl_1800 && avail_partial_retry_ttl_3600 >= avail_partial_ttl_3600"},
		{"70 % loss, retries + serve-stale, TTL 60 s", "", "", "avail_partial_retry_stale_ttl_60 >= 0.95"},
	}},
	{"propagation", func(s int64) map[string]float64 { return PropagationSweep(50, 1, s).Metrics }, []claim{
		{"propagation lag (min), TTL 60 / 600 / 3600 s", "the delay is the TTL (§6.1)", "monotone; ≤ 4, 5-15, ≥ 45", "lag_min_ttl_60 <= lag_min_ttl_600 && lag_min_ttl_600 <= lag_min_ttl_3600 && lag_min_ttl_60 <= 4 && lag_min_ttl_600 >= 5 && lag_min_ttl_600 <= 15 && lag_min_ttl_3600 >= 45"},
		{"old-content share at 75 min, TTL 600 s", "", "stragglers are parent-centric or sticky", "tail_old_ttl_600 <= 0.1"},
	}},
	{"parent-child", func(s int64) map[string]float64 {
		_, res := CrawlWorld(0.05, s)
		return ParentChildComparison(res).Metrics
	}, []claim{
		{".nl children below the registry's 3600 s", "", "", "frac_child_shorter_nl >= 0.05 && frac_child_shorter_nl <= 0.45"},
		{"Alexa / Majestic children with a shorter NS TTL; median child/parent ratio", "", ".com pins delegations at 172800 s", "frac_child_shorter_alexa >= 0.85 && frac_child_shorter_majestic >= 0.85 && median_ratio_alexa < 1 && median_ratio_majestic < 1"},
		{"root-list children with a shorter NS TTL", "", "TLD operators often run long TTLs", "frac_child_shorter_root <= 0.8"},
	}},
	{"parent-child-nl", func(s int64) map[string]float64 {
		_, res := CrawlWorld(0.1, s)
		return ParentChildComparison(res).Metrics
	}, []claim{
		{".nl children at or below the registry's 3600 s, crawl scale 0.1", "about 40 % (§5.1)", "", "frac_child_le_parent_nl >= 0.25 && frac_child_le_parent_nl <= 0.55"},
	}},
	{"farm-fragmentation", func(s int64) map[string]float64 { return FarmFragmentation(3000, 1, s).Metrics }, []claim{
		{"auth queries, private caches, TTL 60 s: 1 / 4 / 16 frontends", "", "monotone in farm size", "auth_private_f1_ttl60 < auth_private_f4_ttl60 && auth_private_f4_ttl60 < auth_private_f16_ttl60"},
		{"auth growth 1 → 16 frontends, private, TTL 60 s: all names / hottest", "", "the hottest ≈ linear (ideal 16×)", "growth_private_ttl60 >= 2.5 && hot_growth_private_ttl60 >= 8"},
		{"auth growth 1 → 16, shared / sharded, TTL 60 s, then 3600 s", "", "flat", "growth_shared_ttl60 >= 0.9 && growth_shared_ttl60 <= 1.1 && growth_sharded_ttl60 >= 0.9 && growth_sharded_ttl60 <= 1.1 && growth_shared_ttl3600 >= 0.9 && growth_shared_ttl3600 <= 1.1 && growth_sharded_ttl3600 >= 0.9 && growth_sharded_ttl3600 <= 1.1"},
		{"hit rate, 16 shared frontends / one resolver, TTL 60 s", "", "within 0.02", "hit_shared_f16_ttl60 >= hit_shared_f1_ttl60 - 0.02 && hit_shared_f16_ttl60 <= hit_shared_f1_ttl60 + 0.02"},
		{"hit rate, 16 private frontends / one resolver, TTL 60 s", "", "fragmentation costs ≥ 0.2", "hit_private_f16_ttl60 <= hit_shared_f1_ttl60 - 0.2"},
		{"auth queries, 16 private frontends, TTL 60 / 3600 s", "", "short TTLs make fragmentation expensive", "auth_private_f16_ttl60 > auth_private_f16_ttl3600"},
	}},
}

// withPrediction returns a copy of a run's metrics plus "core_"+metric: the
// share of d whose lifetime keep accepts, core's closed-form prediction of
// metric. The prediction lives only here, never in a Report.
func withPrediction(m map[string]float64, metric string, d core.Distribution, keep func(ttl uint32) bool) map[string]float64 {
	share := 0.0
	for _, s := range d {
		if keep(s.TTL) {
			share += s.Share
		}
	}
	m = maps.Clone(m)
	m["core_"+metric] = share
	return m
}

const (
	claimSeeds = 10 // every claim is checked at seeds 1..claimSeeds
	claimFloor = 5  // a claim that holds at fewer seeds fails the test
)

// TestPaperClaims runs every claim row at seeds 1..claimSeeds and renders
// EXPERIMENTS.md's verdict blocks from the outcome: ✓ for a claim that holds
// at every seed, k/10 otherwise. It fails on a claim holding at fewer than
// claimFloor seeds, on a check naming a metric its report lacks, and on a
// committed block that differs from its rendering; -update rewrites them.
func TestPaperClaims(t *testing.T) {
	if race.Enabled {
		t.Skip("ten seeds of every experiment take minutes under -race; the plain build checks them")
	}
	runs := Sweep(len(claimRows)*claimSeeds, 0, func(i int) map[string]float64 {
		return claimRows[i/claimSeeds].run(int64(i%claimSeeds + 1))
	})
	rendered := map[string][]string{}
	for ri, row := range claimRows {
		t.Run(row.id, func(t *testing.T) {
			for _, c := range row.claims {
				held, measured, err := tally(c.check, runs[ri*claimSeeds:(ri+1)*claimSeeds])
				verdict := "✓"
				if held < claimSeeds {
					verdict = fmt.Sprintf("%d/%d", held, claimSeeds)
				}
				if err != nil || held < claimFloor {
					t.Errorf("%s (%s): holds at %s seeds, measured %s; %v", c.label, c.check, verdict, measured, err)
				}
				verdict = strings.TrimSuffix(verdict+" — "+c.note, " — ")
				rendered[row.id] = append(rendered[row.id], strings.Join([]string{c.label, cmp.Or(c.paper, "—"), measured, verdict}, " | ")+" |")
			}
		})
	}
	if len(rendered) < len(claimRows) {
		return // -run skipped rows, so there are no whole blocks to compare
	}
	const path = "../../EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := renderVerdicts(string(doc), rendered)
	switch {
	case err != nil:
		t.Fatal(err)
	case *update:
		err = os.WriteFile(path, []byte(got), 0o644)
	case got != string(doc):
		err = fmt.Errorf("EXPERIMENTS.md's verdict blocks differ from the claim table; rewrite them with\n\tgo test ./internal/experiments -run TestPaperClaims -update\nand read the change in git diff")
	}
	if err != nil {
		t.Error(err)
	}
}

// renderVerdicts rewrites each verdict block of doc — the lines between
// `<!-- claims id… -->` and `<!-- /claims -->` — as one table of the named
// rows' claims. It fails on a row no block renders, an unclosed block, and
// a table row outside the blocks that carries a ✓.
func renderVerdicts(doc string, rows map[string][]string) (string, error) {
	lines, out := strings.Split(doc, "\n"), []string(nil)
	for i := 0; i < len(lines); i++ {
		out = append(out, lines[i])
		ids, ok := strings.CutPrefix(lines[i], "<!-- claims ")
		if !ok && strings.HasPrefix(lines[i], "|") && strings.Contains(lines[i], "✓") {
			return "", fmt.Errorf("EXPERIMENTS.md:%d: a verdict outside the claim blocks: %s", i+1, lines[i])
		} else if !ok {
			continue
		}
		fields := strings.Fields(strings.TrimSuffix(ids, "-->"))
		lead, head := "| ", fmt.Sprintf("| quantity | paper | measured: median [min–max], seeds 1–%d | verdict |", claimSeeds)
		if len(fields) > 1 {
			head = "| experiment " + head
		}
		out = append(out, head, strings.Repeat("|---", strings.Count(head, "|")-1)+"|")
		for _, id := range fields {
			if len(fields) > 1 {
				lead = "| `" + id + "` | "
			}
			for _, r := range rows[id] {
				out = append(out, lead+r)
			}
			delete(rows, id)
		}
		for i++; i < len(lines) && lines[i] != "<!-- /claims -->"; i++ {
		}
		if i == len(lines) {
			return "", fmt.Errorf("EXPERIMENTS.md: the claims block for %v is not closed", fields)
		}
		out = append(out, lines[i])
	}
	for id := range rows {
		return "", fmt.Errorf("EXPERIMENTS.md: no claims block renders row %q", id)
	}
	return strings.Join(out, "\n"), nil
}

// tally decides check at every run. It returns the number of runs the check
// holds at and its measured column: each metric the check names, as the
// median [min–max] over the runs. A metric a run lacks is an error, not 0.
func tally(check string, runs []map[string]float64) (held int, measured string, err error) {
	var names []string
	val := func(m map[string]float64, tok string) float64 {
		if v, e := strconv.ParseFloat(tok, 64); e == nil {
			return v
		}
		k, name := "1", tok
		if a, b, ok := strings.Cut(tok, "*"); ok {
			k, name = a, b
		}
		kv, e := strconv.ParseFloat(k, 64)
		if v, ok := m[name]; ok && e == nil {
			if !slices.Contains(names, name) {
				names = append(names, name)
			}
			return kv * v
		}
		err = cmp.Or(err, fmt.Errorf("%q is no metric of the report", tok))
		return 0
	}
	for _, m := range runs {
		holds := true
		for _, term := range strings.Split(check, "&&") {
			f := strings.Fields(term)
			if len(f) != 3 && (len(f) != 5 || f[3] != "+" && f[3] != "-") {
				return 0, "", fmt.Errorf("%q: want `metric op [k*]other [± c]` or `metric op c`", term)
			}
			l, r := val(m, f[0]), val(m, f[2])
			if len(f) == 5 {
				r += map[string]float64{"+": 1, "-": -1}[f[3]] * val(m, f[4])
			}
			ok, known := map[string]bool{"<": l < r, "<=": l <= r, ">": l > r, ">=": l >= r, "==": l == r}[f[1]]
			if !known {
				return 0, "", fmt.Errorf("%q: unknown comparison %q", term, f[1])
			}
			holds = holds && ok
		}
		if holds {
			held++
		}
	}
	cells := make([]string, len(names))
	for i, n := range names {
		vs := make([]float64, len(runs))
		for j, m := range runs {
			vs[j] = m[n]
		}
		slices.Sort(vs)
		med, lo, hi := num((vs[(len(vs)-1)/2]+vs[len(vs)/2])/2), num(vs[0]), num(vs[len(vs)-1])
		cells[i] = med + " [" + lo + "–" + hi + "]"
		if lo == hi {
			cells[i] = med
		}
	}
	return held, strings.Join(cells, " / "), err
}

func num(v float64) string {
	if v >= 1000 || v <= -1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

// TestClaimMachinery pins what TestPaperClaims relies on: k counts runs,
// and a check naming a metric the report lacks is an error, not a zero.
func TestClaimMachinery(t *testing.T) {
	runs := []map[string]float64{{"a": 1, "b": 3}, {"a": 2, "b": 3}}
	held, measured, err := tally("b >= 2*a - 0.5 && a > 0", runs)
	_, _, missing := tally("a <= missing + 1", runs)
	if held != 1 || measured != "3 / 1.5 [1–2]" || err != nil || missing == nil {
		t.Errorf("tally = %d, %q, %v; with a missing metric: %v", held, measured, err, missing)
	}
}
