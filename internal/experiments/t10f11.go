package experiments

import (
	"fmt"
	"time"

	"dnsttl/internal/atlas"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/stats"
)

// ttlCampaign is one column of Table 10.
type ttlCampaign struct {
	Label    string
	Name     dnswire.Name
	PerProbe bool
}

// table10Campaigns in the paper's column order.
var table10Campaigns = []ttlCampaign{
	{"TTL60-u", dnswire.NewName("PROBEID.u60.mapache-de-madrid.co"), true},
	{"TTL86400-u", dnswire.NewName("PROBEID.u86400.mapache-de-madrid.co"), true},
	{"TTL60-s", dnswire.NewName("1.mapache-de-madrid.co"), false},
	{"TTL86400-s", dnswire.NewName("2.mapache-de-madrid.co"), false},
	{"TTL60-s-anycast", dnswire.NewName("4.mapache-any.co"), false},
}

// ttlCampaignResult captures one campaign's client- and authoritative-side
// view.
type ttlCampaignResult struct {
	Label       string
	VPs         int
	Client      *stats.Sample // RTT in ms
	ValidResps  int
	AuthQueries uint64
}

// runTTLCampaign probes one test name from a fresh fleet, counting queries
// arriving at the controlled domain's authoritative.
func runTTLCampaign(c ttlCampaign, probes int, seed int64) ttlCampaignResult {
	tb := NewTestbed(seed)
	srv := tb.Servers[tb.MapacheAddr]
	fleet := tb.Fleet(probes, nil, seed)

	// Warm the delegation chain with a throwaway name in the same zone so
	// the authoritative count reflects the test name itself, not
	// first-contact infrastructure walks — the paper's VPs had long since
	// cached the .co path.
	warmName := dnswire.NewName("warmup.mapache-de-madrid.co")
	if c.Name.IsSubdomainOf(dnswire.NewName("mapache-any.co")) {
		warmName = dnswire.NewName("warmup.mapache-any.co")
	}
	fleet.Run(tb.Clock, atlas.Schedule{
		Name: warmName, Type: dnswire.TypeAAAA,
		Interval: time.Second, Rounds: 1,
	})
	tb.Clock.Advance(2 * time.Minute)
	warm := srv.QueryCount()

	resps := fleet.Run(tb.Clock, atlas.Schedule{
		Name: c.Name, Type: dnswire.TypeAAAA,
		Interval: 600 * time.Second, Rounds: 6,
		PerProbe: c.PerProbe, Jitter: true,
	})
	out := ttlCampaignResult{Label: c.Label, VPs: len(fleet.VPs), Client: stats.NewSample()}
	for _, r := range resps {
		if !r.Valid() {
			continue
		}
		out.ValidResps++
		out.Client.AddDuration(r.RTT)
	}
	out.AuthQueries = srv.QueryCount() - warm
	return out
}

// Table10Figure11 runs the five §6.2 campaigns, one Sweep cell each, and
// reports the query-volume table and the latency CDFs.
func Table10Figure11(probes, workers int, seed int64) *Report {
	results := Sweep(len(table10Campaigns), workers, func(i int) ttlCampaignResult {
		return runTTLCampaign(table10Campaigns[i], probes, seed+int64(i))
	})

	tbl := &stats.Table{Title: "Table 10: controlled TTL experiments",
		Header: []string{"", "TTL60-u", "TTL86400-u", "TTL60-s", "TTL86400-s", "TTL60-s-anycast"}}
	row := func(name string, f func(ttlCampaignResult) string) {
		cells := []string{name}
		for _, r := range results {
			cells = append(cells, f(r))
		}
		tbl.AddRow(cells...)
	}
	row("VPs", func(r ttlCampaignResult) string { return stats.FormatCount(r.VPs) })
	row("responses (valid)", func(r ttlCampaignResult) string { return stats.FormatCount(r.ValidResps) })
	row("auth queries", func(r ttlCampaignResult) string { return stats.FormatCount(int(r.AuthQueries)) })
	row("median RTT (ms)", func(r ttlCampaignResult) string { return fmt.Sprintf("%.2f", r.Client.Median()) })
	row("p75 RTT (ms)", func(r ttlCampaignResult) string { return fmt.Sprintf("%.2f", r.Client.Quantile(0.75)) })
	row("p95 RTT (ms)", func(r ttlCampaignResult) string { return fmt.Sprintf("%.2f", r.Client.Quantile(0.95)) })

	byLabel := map[string]ttlCampaignResult{}
	for _, r := range results {
		byLabel[r.Label] = r
	}
	fig11a := stats.RenderCDF("Figure 11a: client RTT, unique query names",
		"RTT (ms)", map[string]*stats.Sample{
			"TTL60-u":    byLabel["TTL60-u"].Client,
			"TTL86400-u": byLabel["TTL86400-u"].Client,
		}, 64, true)
	fig11b := stats.RenderCDF("Figure 11b: client RTT, shared query names",
		"RTT (ms)", map[string]*stats.Sample{
			"TTL60-s":         byLabel["TTL60-s"].Client,
			"TTL86400-s":      byLabel["TTL86400-s"].Client,
			"TTL60-s-anycast": byLabel["TTL60-s-anycast"].Client,
		}, 64, true)

	m := map[string]float64{}
	for _, r := range results {
		m["median_ms_"+r.Label] = r.Client.Median()
		m["p75_ms_"+r.Label] = r.Client.Quantile(0.75)
		m["p95_ms_"+r.Label] = r.Client.Quantile(0.95)
		m["auth_queries_"+r.Label] = float64(r.AuthQueries)
	}
	m["load_reduction_unique"] = 1 - m["auth_queries_TTL86400-u"]/m["auth_queries_TTL60-u"]
	m["load_reduction_shared"] = 1 - m["auth_queries_TTL86400-s"]/m["auth_queries_TTL60-s"]

	rep := &Report{
		ID:      "Table 10 / Figure 11",
		Title:   "Longer TTLs cut authoritative load and beat anycast at the median",
		Text:    tbl.String() + "\n" + fig11a + "\n" + fig11b,
		Metrics: m,
	}
	for _, r := range results {
		rep.AddSeries("rtt_ms_"+r.Label, r.Client)
	}
	return rep
}
