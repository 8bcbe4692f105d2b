package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"dnsttl/internal/atlas"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/population"
	"dnsttl/internal/simnet"
	"dnsttl/internal/stats"
)

// Answer contents before and after the renumbering (world.go's
// ConfigureSub/RenumberSub).
var (
	oldAnswer dnswire.RData = dnswire.AAAA{Addr: netip.MustParseAddr("2001:db8::1")}
	newAnswer dnswire.RData = dnswire.AAAA{Addr: netip.MustParseAddr("2001:db8::2")}
)

// BailiwickResult is one renumbering campaign's digest.
type BailiwickResult struct {
	InBailiwick bool
	// PerRound[r] counts old/new-content answers in round r (10-minute
	// bins, the Figures 6/7 bars).
	PerRound []struct{ Old, New, Other int }
	// Responses per VP for stickiness and Figure 8.
	VPOld, VPNew map[int]int
	VPs          int
	Queries      int
	Valid        int
	Discarded    int
	Timeouts     int
}

// runBailiwick executes one §4.2/§4.3 campaign: probe every 600 s for 4 h,
// renumber the server at round 1 (t=10 min, the paper's t=9 min).
func runBailiwick(inBailiwick bool, probes int, seed int64) *BailiwickResult {
	return runBailiwickMix(inBailiwick, probes, seed, nil)
}

// runBailiwickMix is runBailiwick with an explicit resolver population, for
// the ablation studies.
func runBailiwickMix(inBailiwick bool, probes int, seed int64, mix population.Mix) *BailiwickResult {
	tb := NewTestbed(seed)
	tb.ConfigureSub(inBailiwick)
	fleet := tb.Fleet(probes, mix, seed)

	rounds := 24 // 4 hours
	resps := fleet.Run(tb.Clock, atlas.Schedule{
		Name:     dnswire.NewName("PROBEID.sub.cachetest.net"),
		Type:     dnswire.TypeAAAA,
		Interval: 600 * time.Second,
		Rounds:   rounds,
		PerProbe: true,
		OnRound: func(r int) {
			if r == 1 {
				tb.RenumberSub(inBailiwick)
			}
		},
	})

	out := &BailiwickResult{
		InBailiwick: inBailiwick,
		PerRound:    make([]struct{ Old, New, Other int }, rounds),
		VPOld:       make(map[int]int),
		VPNew:       make(map[int]int),
		VPs:         len(fleet.VPs),
	}
	for _, r := range resps {
		out.Queries++
		if !r.Valid() {
			out.Discarded++
			if r.Err != nil {
				out.Timeouts++
			}
			continue
		}
		out.Valid++
		switch r.Answer {
		case oldAnswer:
			out.PerRound[r.Round].Old++
			out.VPOld[r.VPID]++
		case newAnswer:
			out.PerRound[r.Round].New++
			out.VPNew[r.VPID]++
		default:
			out.PerRound[r.Round].Other++
		}
	}
	return out
}

// fracNewInWindow returns the fraction of answers carrying the new content
// within rounds [lo, hi).
func (b *BailiwickResult) fracNewInWindow(lo, hi int) float64 {
	old, new_ := 0, 0
	for r := lo; r < hi && r < len(b.PerRound); r++ {
		old += b.PerRound[r].Old
		new_ += b.PerRound[r].New
	}
	return frac(new_, old+new_)
}

// StickyVPs returns the VPs that only ever saw old content despite
// answering in the final hour — the paper's Table 4 census.
func (b *BailiwickResult) StickyVPs() []int {
	var out []int
	for vp, n := range b.VPOld {
		if n >= 20 && b.VPNew[vp] == 0 {
			// Answered nearly every round, never switched.
			out = append(out, vp)
		}
	}
	return out
}

func renderTimeseries(title string, b *BailiwickResult) string {
	tbl := &stats.Table{Title: title, Header: []string{"t (min)", "old", "new", "bar"}}
	for r, row := range b.PerRound {
		tot := row.Old + row.New
		bar := ""
		if tot > 0 {
			w := 40 * row.New / tot
			for i := 0; i < 40; i++ {
				if i < w {
					bar += "#" // new server
				} else {
					bar += "."
				}
			}
		}
		tbl.AddRow(fmt.Sprintf("%d", r*10), stats.FormatCount(row.Old), stats.FormatCount(row.New), bar)
	}
	return tbl.String()
}

// BailiwickPair runs the in- and out-of-bailiwick campaigns with matched
// fleets, as two Sweep cells, and produces Figures 6, 7 and 8 plus Tables 3
// and 4.
func BailiwickPair(probes, workers int, seed int64) *Report {
	inBailiwick := []bool{true, false}
	runs := Sweep(len(inBailiwick), workers, func(i int) *BailiwickResult {
		return runBailiwick(inBailiwick[i], probes, seed)
	})
	in, out := runs[0], runs[1]

	t3 := &stats.Table{Title: "Table 3: bailiwick experiments",
		Header: []string{"quantity", "in-bailiwick", "out-of-bailiwick"}}
	addRow := func(name string, f func(*BailiwickResult) int) {
		t3.AddRow(name, stats.FormatCount(f(in)), stats.FormatCount(f(out)))
	}
	addRow("VPs", func(b *BailiwickResult) int { return b.VPs })
	addRow("queries", func(b *BailiwickResult) int { return b.Queries })
	addRow("responses (valid)", func(b *BailiwickResult) int { return b.Valid })
	addRow("responses (disc.)", func(b *BailiwickResult) int { return b.Discarded })

	inSticky := in.StickyVPs()
	outSticky := out.StickyVPs()
	t4 := &stats.Table{Title: "Table 4: sticky-resolver census",
		Header: []string{"", "in-bailiwick", "out-of-bailiwick"}}
	t4.AddRow("sticky VPs", stats.FormatCount(len(inSticky)), stats.FormatCount(len(outSticky)))

	// Figure 8: VPs sticky out-of-bailiwick, their new-content ratio in
	// the in-bailiwick run. Most are not sticky at all there — their
	// out-of-bailiwick stickiness was parent-centricity (§4.4/§4.5).
	f8 := stats.NewSample()
	switchers := 0
	for _, vp := range outSticky {
		tot := in.VPOld[vp] + in.VPNew[vp]
		if tot > 0 {
			ratio := frac(in.VPNew[vp], tot)
			f8.Add(ratio)
			if ratio >= 0.5 {
				switchers++
			}
		}
	}

	text := t3.String() + "\n" +
		renderTimeseries("Figure 6: in-bailiwick (renumber at t=10; NS TTL 3600, A TTL 7200)", in) + "\n" +
		renderTimeseries("Figure 7: out-of-bailiwick", out) + "\n" +
		t4.String() + "\n" +
		stats.RenderCDF("Figure 8: new-content ratio (in-bailiwick) of VPs sticky out-of-bailiwick",
			"ratio", map[string]*stats.Sample{"matched VPs": f8}, 50, false)

	return &Report{
		ID:    "Figures 6-8",
		Title: "Effective TTLs under renumbering: in- vs out-of-bailiwick servers",
		Text:  text,
		Metrics: map[string]float64{
			// In-bailiwick: before NS expiry (rounds 2..6) everyone still
			// holds the old content; after NS expiry (rounds 7..11) the
			// coupled majority has switched even though the A was valid.
			"in_frac_new_before_ns_expiry":  in.fracNewInWindow(2, 6),
			"in_frac_new_after_ns_expiry":   in.fracNewInWindow(7, 12),
			"in_frac_new_after_both_expiry": in.fracNewInWindow(13, 24),
			// Out-of-bailiwick: the cached A survives the NS expiry, so
			// the switch happens only after the full 2 h.
			"out_frac_new_after_ns_expiry":   out.fracNewInWindow(7, 12),
			"out_frac_new_after_both_expiry": out.fracNewInWindow(13, 24),
			"in_sticky_vps":                  float64(len(inSticky)),
			"out_sticky_vps":                 float64(len(outSticky)),
			"out_sticky_frac":                frac(len(outSticky), out.VPs),
			"f8_matched_vps":                 float64(f8.Len()),
			"f8_matched_mean_new_ratio":      f8.Mean(),
			"f8_matched_frac_switchers":      frac(switchers, f8.Len()),
		},
	}
}

// OfflineChild reproduces the §4.4 zurrundedu-offline check: with the child
// authoritative servers down, only parent-centric resolvers (which trust
// the .com referral for two days) still answer the NS query; everyone else
// fails.
func OfflineChild(probes int, seed int64) *Report {
	tb := NewTestbed(seed)
	tb.ConfigureSub(false) // builds the zurro-dns.com zone and server
	if err := tb.Net.SetDown(tb.ZurroAddr, true); err != nil {
		panic(err)
	}
	// The paper confirmed OpenDNS's parent-centricity from pcaps: the
	// child authoritatives never received the NS query. The network tap
	// is our packet capture.
	childQueries := 0
	tb.Net.Tap = func(ev simnet.TapEvent) {
		if ev.Dst == tb.ZurroAddr {
			childQueries++
		}
	}
	fleet := tb.Fleet(probes, nil, seed)
	resps := fleet.Run(tb.Clock, atlas.Schedule{
		Name: dnswire.NewName("zurro-dns.com"), Type: dnswire.TypeNS,
		Interval: 300 * time.Second, Rounds: 2,
	})
	byProfile := map[string][2]int{} // valid, total
	for _, r := range resps {
		c := byProfile[r.Profile]
		c[1]++
		if r.Valid() {
			c[0]++
		}
		byProfile[r.Profile] = c
	}
	tbl := &stats.Table{Title: "Child authoritatives offline: who still answers NS zurro-dns.com?",
		Header: []string{"profile", "valid", "total"}}
	metrics := map[string]float64{}
	for _, p := range []string{"bind-like", "unbound-like", "google-like", "opendns-like", "localroot", "sticky", "decoupled"} {
		c := byProfile[p]
		tbl.AddRow(p, stats.FormatCount(c[0]), stats.FormatCount(c[1]))
		metrics["valid_frac_"+p] = frac(c[0], c[1])
	}
	// Attempts reached the dead child only from child-centric resolvers;
	// parent-centric answers involved no child contact at all.
	metrics["child_query_attempts"] = float64(childQueries)
	return &Report{
		ID:      "§4.4 offline",
		Title:   "Parent-centric resolvers answer from the parent when the child is down",
		Text:    tbl.String(),
		Metrics: metrics,
	}
}
