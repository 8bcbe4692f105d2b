package experiments

import (
	"fmt"
	"time"

	"dnsttl/internal/atlas"
	"dnsttl/internal/dnssec"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/population"
	"dnsttl/internal/stats"
)

// ValidationCentricity quantifies the §6.3 recommendation: "DNSSEC
// verification requires evaluation of queries from the child zone". The
// same population mix probes a signed .uy-style zone twice — once as-is,
// once with every resolver validating — and the parent-TTL share collapses.
func ValidationCentricity(probes, workers int, seed int64) *Report {
	type shares struct{ child, parent float64 }
	validating := []bool{false, true}
	runs := Sweep(len(validating), workers, func(i int) shares {
		tb := NewTestbed(seed)
		key := dnssec.NewKey(dnswire.NewName("uy"), seed)
		if _, err := dnssec.SignZone(tb.Uy, key, tb.Clock.Now()); err != nil {
			panic(err)
		}
		mix := population.DefaultMix()
		if validating[i] {
			for j := range mix {
				mix[j].Policy.Validate = true
			}
		}
		fleet := tb.Fleet(probes, mix, seed)
		resps := fleet.Run(tb.Clock, atlas.Schedule{
			Name: dnswire.NewName("uy"), Type: dnswire.TypeNS,
			Interval: 600 * time.Second, Rounds: 6, Jitter: true,
		})
		child, parent, valid := 0, 0, 0
		for _, r := range resps {
			if !r.Valid() || r.TTL == 0 {
				continue
			}
			valid++
			if r.TTL <= 300 {
				child++
			} else {
				parent++
			}
		}
		return shares{frac(child, valid), frac(parent, valid)}
	})
	cPlain, pPlain := runs[0].child, runs[0].parent
	cVal, pVal := runs[1].child, runs[1].parent

	tbl := &stats.Table{Title: "DNSSEC validation and centricity (.uy NS, child 300 s vs parent 172800 s)",
		Header: []string{"population", "child-TTL answers", "parent-TTL answers"}}
	tbl.AddRow("measured mix", fmt.Sprintf("%.1f%%", 100*cPlain), fmt.Sprintf("%.1f%%", 100*pPlain))
	tbl.AddRow("same mix, all validating", fmt.Sprintf("%.1f%%", 100*cVal), fmt.Sprintf("%.1f%%", 100*pVal))

	return &Report{
		ID:    "§6.3 validation",
		Title: "Validating resolvers are structurally child-centric",
		Text:  tbl.String(),
		Metrics: map[string]float64{
			"frac_child_plain":       cPlain,
			"frac_parent_plain":      pPlain,
			"frac_child_validating":  cVal,
			"frac_parent_validating": pVal,
		},
	}
}
