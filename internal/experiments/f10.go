package experiments

import (
	"fmt"
	"time"

	"dnsttl/internal/atlas"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/latency"
	"dnsttl/internal/stats"
)

// uyLatency is the valid-answer RTTs of one .uy campaign, overall and per
// region.
type uyLatency struct {
	all      *stats.Sample
	byRegion map[latency.Region]*stats.Sample
}

// uyCampaign measures .uy NS query latency from a fresh fleet with the
// given child NS TTL.
func uyCampaign(childTTL uint32, probes int, seed int64) uyLatency {
	tb := NewTestbed(seed)
	if !tb.Uy.SetTTL(dnswire.NewName("uy"), dnswire.TypeNS, childTTL) {
		panic("uy NS set missing")
	}
	fleet := tb.Fleet(probes, nil, seed)
	resps := fleet.Run(tb.Clock, atlas.Schedule{
		Name: dnswire.NewName("uy"), Type: dnswire.TypeNS,
		Interval: 600 * time.Second, Rounds: 12, Jitter: true,
	})
	out := uyLatency{stats.NewSample(), make(map[latency.Region]*stats.Sample)}
	for _, r := range resps {
		if !r.Valid() {
			continue
		}
		out.all.AddDuration(r.RTT)
		if out.byRegion[r.Region] == nil {
			out.byRegion[r.Region] = stats.NewSample()
		}
		out.byRegion[r.Region].AddDuration(r.RTT)
	}
	return out
}

// Figure10 reproduces the .uy natural experiment (§5.3): the same NS .uy
// probing before (child NS TTL 300 s) and after (86400 s) the operator's
// change — two Sweep cells — as latency CDFs overall and per region.
func Figure10(probes, workers int, seed int64) *Report {
	childTTLs := []uint32{300, 86400}
	runs := Sweep(len(childTTLs), workers, func(i int) uyLatency {
		return uyCampaign(childTTLs[i], probes, seed+int64(i))
	})
	before, beforeRegion := runs[0].all, runs[0].byRegion
	after, afterRegion := runs[1].all, runs[1].byRegion

	fig10a := stats.RenderCDF("Figure 10a: RTT for NS .uy queries, before (TTL 300) vs after (TTL 86400)",
		"RTT (ms)", map[string]*stats.Sample{"TTL 300 (before)": before, "TTL 86400 (after)": after}, 64, true)

	t := &stats.Table{Title: "Figure 10b: RTT quantiles per region (ms)",
		Header: []string{"region", "median before", "median after", "p75 before", "p75 after"}}
	m := map[string]float64{
		"median_ms_before": before.Median(),
		"median_ms_after":  after.Median(),
		"p75_ms_before":    before.Quantile(0.75),
		"p75_ms_after":     after.Quantile(0.75),
		"p95_ms_before":    before.Quantile(0.95),
		"p95_ms_after":     after.Quantile(0.95),
		"p99_ms_before":    before.Quantile(0.99),
		"p99_ms_after":     after.Quantile(0.99),
	}
	improved := 0
	total := 0
	for _, region := range latency.AllRegions {
		b, a := beforeRegion[region], afterRegion[region]
		if b == nil || a == nil || b.Len() == 0 || a.Len() == 0 {
			continue
		}
		total++
		if a.Median() < b.Median() {
			improved++
		}
		t.AddRow(region.String(),
			fmt.Sprintf("%.1f", b.Median()), fmt.Sprintf("%.1f", a.Median()),
			fmt.Sprintf("%.1f", b.Quantile(0.75)), fmt.Sprintf("%.1f", a.Quantile(0.75)))
		m["median_ms_before_"+region.String()] = b.Median()
		m["median_ms_after_"+region.String()] = a.Median()
	}
	m["regions_improved"] = float64(improved)
	m["regions_measured"] = float64(total)

	rep := &Report{
		ID:      "Figure 10",
		Title:   "Longer TTLs cut .uy latency (natural experiment)",
		Text:    fig10a + "\n" + t.String(),
		Metrics: m,
	}
	rep.AddSeries("rtt_ms_before_ttl300", before)
	rep.AddSeries("rtt_ms_after_ttl86400", after)
	return rep
}
