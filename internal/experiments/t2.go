package experiments

import (
	"fmt"
	"time"

	"dnsttl/internal/atlas"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/stats"
)

// table2Campaign is one column of the paper's Table 2.
type table2Campaign struct {
	Label     string
	Name      dnswire.Name
	Type      dnswire.Type
	ParentTTL uint32
	ChildTTL  uint32
	Hours     int
	// NewUyTTL, when nonzero, raises the .uy child NS TTL first (the
	// uy-NS-new column, after the operator's change).
	NewUyTTL uint32
}

var table2Campaigns = []table2Campaign{
	{Label: ".uy-NS", Name: dnswire.NewName("uy"), Type: dnswire.TypeNS,
		ParentTTL: 172800, ChildTTL: 300, Hours: 2},
	{Label: "a.nic.uy-A", Name: dnswire.NewName("a.nic.uy"), Type: dnswire.TypeA,
		ParentTTL: 172800, ChildTTL: 120, Hours: 3},
	{Label: "google.co-NS", Name: dnswire.NewName("google.co"), Type: dnswire.TypeNS,
		ParentTTL: 900, ChildTTL: 345600, Hours: 1},
	{Label: ".uy-NS-new", Name: dnswire.NewName("uy"), Type: dnswire.TypeNS,
		ParentTTL: 172800, ChildTTL: 86400, Hours: 2, NewUyTTL: 86400},
}

// Table2 reruns the four centricity campaigns — independent testbeds, fanned
// out through Sweep — and reports their metadata and outcome counts in the
// paper's Table 2 layout.
func Table2(probes, workers int, seed int64) *Report {
	type colResult struct {
		c                  table2Campaign
		vps                int
		queries, responses int
		valid, disc        int
	}
	cols := Sweep(len(table2Campaigns), workers, func(i int) colResult {
		c := table2Campaigns[i]
		tb := NewTestbed(seed + int64(i))
		if c.NewUyTTL != 0 {
			if !tb.Uy.SetTTL(dnswire.NewName("uy"), dnswire.TypeNS, c.NewUyTTL) {
				panic("uy NS set missing")
			}
		}
		fleet := tb.Fleet(probes, nil, seed+int64(i))
		resps := fleet.Run(tb.Clock, atlas.Schedule{
			Name: c.Name, Type: c.Type,
			Interval: 600 * time.Second,
			Rounds:   c.Hours * 6,
			Jitter:   true,
		})
		col := colResult{c: c, vps: len(fleet.VPs)}
		for _, r := range resps {
			col.queries++
			col.responses++
			if r.Valid() && r.TTL > 0 {
				col.valid++
			} else {
				col.disc++
			}
		}
		return col
	})

	tbl := &stats.Table{Title: "Table 2: resolver-centricity experiments",
		Header: []string{"", ".uy-NS", "a.nic.uy-A", "google.co-NS", ".uy-NS-new"}}
	row := func(name string, f func(colResult) string) {
		cells := []string{name}
		for _, col := range cols {
			cells = append(cells, f(col))
		}
		tbl.AddRow(cells...)
	}
	row("Frequency", func(colResult) string { return "600s" })
	row("Duration", func(c colResult) string { return fmt.Sprintf("%dh", c.c.Hours) })
	row("Query", func(c colResult) string { return fmt.Sprintf("%s %s", c.c.Type, c.c.Name) })
	row("TTL Parent", func(c colResult) string { return fmt.Sprintf("%d s", c.c.ParentTTL) })
	row("TTL Child", func(c colResult) string { return fmt.Sprintf("%d s", c.c.ChildTTL) })
	row("VPs", func(c colResult) string { return stats.FormatCount(c.vps) })
	row("Queries", func(c colResult) string { return stats.FormatCount(c.queries) })
	row("Responses", func(c colResult) string { return stats.FormatCount(c.responses) })
	row("  valid", func(c colResult) string { return stats.FormatCount(c.valid) })
	row("  disc.", func(c colResult) string { return stats.FormatCount(c.disc) })

	m := map[string]float64{}
	for _, col := range cols {
		m["valid_"+col.c.Label] = float64(col.valid)
		m["vps_"+col.c.Label] = float64(col.vps)
		m["valid_ratio_"+col.c.Label] = frac(col.valid, col.responses)
	}
	return &Report{
		ID:      "Table 2",
		Title:   "Centricity campaign metadata and response counts",
		Text:    tbl.String(),
		Metrics: m,
	}
}
