package experiments

import (
	"fmt"
	"time"

	"dnsttl/internal/atlas"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/population"
	"dnsttl/internal/resolver"
	"dnsttl/internal/stats"
)

// The ablation studies isolate the design choices DESIGN.md §5 calls out:
// each runs the same campaign with one mechanism toggled and reports the
// behavioral difference that mechanism is responsible for.

// singleProfileMix builds a population of one policy.
func singleProfileMix(name string, pol resolver.Policy) population.Mix {
	return population.Mix{{Name: name, Weight: 1, Policy: pol}}
}

// AblationGlueCoupling toggles RefreshGlueOnReferral: with it (the §4.2
// majority behavior) the in-bailiwick switch happens at the NS TTL; without
// it, at the address TTL — a full hour later.
func AblationGlueCoupling(probes, workers int, seed int64) *Report {
	coupled := resolver.DefaultPolicy()
	decoupled := resolver.DefaultPolicy()
	decoupled.RefreshGlueOnReferral = false

	mixes := []population.Mix{singleProfileMix("coupled", coupled), singleProfileMix("decoupled", decoupled)}
	runs := Sweep(len(mixes), workers, func(i int) *BailiwickResult {
		return runBailiwickMix(true, probes, seed, mixes[i])
	})
	on, off := runs[0], runs[1]

	tbl := &stats.Table{Title: "Glue-refresh ablation (in-bailiwick renumber; fraction on new server)",
		Header: []string{"window", "coupled (refresh)", "decoupled (keep)"}}
	tbl.AddRow("before NS expiry (20-60 min)",
		fmt.Sprintf("%.2f", on.fracNewInWindow(2, 6)), fmt.Sprintf("%.2f", off.fracNewInWindow(2, 6)))
	tbl.AddRow("after NS expiry (70-120 min)",
		fmt.Sprintf("%.2f", on.fracNewInWindow(7, 12)), fmt.Sprintf("%.2f", off.fracNewInWindow(7, 12)))
	tbl.AddRow("after A expiry (130-240 min)",
		fmt.Sprintf("%.2f", on.fracNewInWindow(13, 24)), fmt.Sprintf("%.2f", off.fracNewInWindow(13, 24)))

	return &Report{
		ID:    "Ablation: glue coupling",
		Title: "RefreshGlueOnReferral decides whether NS expiry drags the A record with it",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"coupled_frac_new_after_ns_expiry":   on.fracNewInWindow(7, 12),
			"decoupled_frac_new_after_ns_expiry": off.fracNewInWindow(7, 12),
			"decoupled_frac_new_after_a_expiry":  off.fracNewInWindow(13, 24),
		},
	}
}

// AblationServeStale toggles RFC 8767 serve-stale during an authoritative
// outage: stale answers replace SERVFAILs for anything cached before the
// outage — the paper's §6.1 DDoS-resilience argument.
func AblationServeStale(probes, workers int, seed int64) *Report {
	stale := resolver.DefaultPolicy()
	stale.ServeStale = true
	mixes := []population.Mix{singleProfileMix("serve-stale", stale), singleProfileMix("strict", resolver.DefaultPolicy())}
	type outcome struct {
		validDuringOutage float64
		staleAnswers      int
	}
	runs := Sweep(len(mixes), workers, func(i int) outcome {
		tb := NewTestbed(seed)
		fleet := tb.Fleet(probes, mixes[i], seed)
		const outageRound = 3
		resps := fleet.Run(tb.Clock, atlas.Schedule{
			Name: dnswire.NewName("www.cachetest.net"), Type: dnswire.TypeA,
			Interval: 600 * time.Second, Rounds: 9,
			OnRound: func(r int) {
				if r == outageRound {
					_ = tb.Net.SetDown(tb.RootAddr, true)
					_ = tb.Net.SetDown(tb.NetAddr, true)
					_ = tb.Net.SetDown(tb.CtAddr, true)
				}
			},
		})
		valid, total, staleAnswers := 0, 0, 0
		for _, r := range resps {
			if r.Round < outageRound {
				continue
			}
			total++
			if r.Valid() {
				valid++
			}
			if r.Stale {
				staleAnswers++
			}
		}
		return outcome{frac(valid, total), staleAnswers}
	})
	vOn, staleN := runs[0].validDuringOutage, runs[0].staleAnswers
	vOff := runs[1].validDuringOutage

	tbl := &stats.Table{Title: "Serve-stale ablation: answer availability during a full outage",
		Header: []string{"policy", "valid answers during outage", "stale answers"}}
	tbl.AddRow("serve-stale (RFC 8767)", fmt.Sprintf("%.1f%%", 100*vOn), stats.FormatCount(staleN))
	tbl.AddRow("strict TTL", fmt.Sprintf("%.1f%%", 100*vOff), "0")

	return &Report{
		ID:    "Ablation: serve-stale",
		Title: "Caching (plus serve-stale) keeps names resolvable through a DDoS",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"valid_frac_serve_stale": vOn,
			"valid_frac_strict":      vOff,
			"stale_answers":          float64(staleN),
		},
	}
}

// AblationPrefetch toggles renew-before-expiry (the Pappas et al. proposal
// from §7): prefetch converts post-expiry misses into hits, paying with
// authoritative queries.
func AblationPrefetch(probes, workers int, seed int64) *Report {
	pre := resolver.DefaultPolicy()
	pre.PrefetchFraction = 0.4 // the last 120 s of www.cachetest.net's 300
	mixes := []population.Mix{singleProfileMix("prefetch", pre), singleProfileMix("plain", resolver.DefaultPolicy())}
	type outcome struct {
		hitFrac     float64
		authQueries uint64
	}
	runs := Sweep(len(mixes), workers, func(i int) outcome {
		tb := NewTestbed(seed)
		fleet := tb.Fleet(probes, mixes[i], seed)
		srv := tb.Servers[tb.CtAddr]
		// www.cachetest.net has TTL 300; probing every 240 s keeps
		// remaining TTLs inside the prefetch threshold window.
		resps := fleet.Run(tb.Clock, atlas.Schedule{
			Name: dnswire.NewName("www.cachetest.net"), Type: dnswire.TypeA,
			Interval: 240 * time.Second, Rounds: 10,
		})
		hits, total := 0, 0
		for _, r := range resps {
			if !r.Valid() {
				continue
			}
			total++
			if r.CacheHit {
				hits++
			}
		}
		return outcome{frac(hits, total), srv.QueryCount()}
	})
	hOn, qOn := runs[0].hitFrac, runs[0].authQueries
	hOff, qOff := runs[1].hitFrac, runs[1].authQueries

	tbl := &stats.Table{Title: "Prefetch ablation (TTL 300, probes every 240 s)",
		Header: []string{"policy", "cache-hit fraction", "authoritative queries"}}
	tbl.AddRow("prefetch", fmt.Sprintf("%.2f", hOn), stats.FormatCount(int(qOn)))
	tbl.AddRow("plain", fmt.Sprintf("%.2f", hOff), stats.FormatCount(int(qOff)))

	return &Report{
		ID:    "Ablation: prefetch",
		Title: "Renewing before expiry trades authoritative queries for client hits",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"hit_frac_prefetch":     hOn,
			"hit_frac_plain":        hOff,
			"auth_queries_prefetch": float64(qOn),
			"auth_queries_plain":    float64(qOff),
		},
	}
}

// AblationCapStyle contrasts storage-time caps (BIND max-cache-ttl) with
// serve-time caps (the Google signature of §3.3) on a 345600 s record.
func AblationCapStyle(workers int, seed int64) *Report {
	serveCap := resolver.DefaultPolicy()
	serveCap.TTLCap = 21599
	serveCap.CapAtServe = true
	storeCap := resolver.DefaultPolicy()
	storeCap.TTLCap = 21599
	mixes := []population.Mix{singleProfileMix("serve-cap", serveCap), singleProfileMix("store-cap", storeCap)}
	type outcome struct{ atCap, total int }
	runs := Sweep(len(mixes), workers, func(i int) outcome {
		tb := NewTestbed(seed)
		fleet := tb.Fleet(40, mixes[i], seed)
		resps := fleet.Run(tb.Clock, atlas.Schedule{
			Name: dnswire.NewName("google.co"), Type: dnswire.TypeNS,
			Interval: 3600 * time.Second, Rounds: 8, // two cap lifetimes
		})
		var o outcome
		for _, r := range resps {
			if !r.Valid() {
				continue
			}
			o.total++
			if r.TTL == 21599 {
				o.atCap++
			}
		}
		return o
	})
	serveAt, serveTotal := runs[0].atCap, runs[0].total
	storeAt, storeTotal := runs[1].atCap, runs[1].total

	tbl := &stats.Table{Title: "Cap-placement ablation (google.co NS, child TTL 345600, cap 21599)",
		Header: []string{"cap style", "answers exactly 21599", "share"}}
	tbl.AddRow("serve-time (Google-like)", stats.FormatCount(serveAt),
		fmt.Sprintf("%.0f%%", 100*frac(serveAt, serveTotal)))
	tbl.AddRow("storage-time (BIND-like)", stats.FormatCount(storeAt),
		fmt.Sprintf("%.0f%%", 100*frac(storeAt, storeTotal)))

	return &Report{
		ID:    "Ablation: cap placement",
		Title: "Serve-time caps pin answers at exactly the cap; storage caps decay",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"at_cap_frac_serve": frac(serveAt, serveTotal),
			"at_cap_frac_store": frac(storeAt, storeTotal),
		},
	}
}
