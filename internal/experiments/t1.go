package experiments

import (
	"fmt"
	"net/netip"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
	"dnsttl/internal/stats"
)

// Table1 reproduces the paper's Table 1: walk the resolution chain for a
// ccTLD (.cl) recording, at each step, which server answered, what records
// came back, their TTLs, and which section/authority status carried them —
// the raw demonstration that one record lives in multiple places with
// different TTLs.
func Table1(tb *Testbed) *Report {
	type row struct {
		q       string
		server  string
		rr      dnswire.RR
		section dnswire.Section
		auth    bool
	}
	var rows []row
	var id uint16

	ask := func(server netip.Addr, serverName string, name dnswire.Name, t dnswire.Type, q string) {
		id++
		resp, _, err := simnet.Ask(tb.Net, netip.MustParseAddr("10.99.0.1"), server, dnswire.NewIterativeQuery(id, name, t))
		if err != nil {
			return
		}
		for _, sec := range []dnswire.Section{dnswire.SectionAnswer, dnswire.SectionAuthority, dnswire.SectionAdditional} {
			for _, rr := range resp.Section(sec) {
				if rr.Type == dnswire.TypeSOA {
					continue
				}
				rows = append(rows, row{q: q, server: serverName, rr: rr, section: sec, auth: resp.Header.AA})
			}
		}
	}

	// The three queries of Table 1.
	ask(tb.RootAddr, "a.root-servers.net", dnswire.NewName("cl"), dnswire.TypeNS, ".cl / NS")
	ask(tb.ClAddr, "a.nic.cl", dnswire.NewName("cl"), dnswire.TypeNS, ".cl / NS")
	ask(tb.ClAddr, "a.nic.cl", dnswire.NewName("a.nic.cl"), dnswire.TypeA, "a.nic.cl / A")

	tbl := &stats.Table{
		Title:  "Parent and child TTLs on the .cl chain (star = authoritative answer)",
		Header: []string{"Q / Type", "Server", "Response", "TTL", "Sec."},
	}
	metrics := map[string]float64{}
	for _, r := range rows {
		sec := "Add."
		star := ""
		switch {
		case r.section == dnswire.SectionAnswer && r.auth:
			sec, star = "Ans.", "*"
		case r.section == dnswire.SectionAnswer:
			sec = "Ans."
		case r.section == dnswire.SectionAuthority:
			sec = "Auth."
		}
		tbl.AddRow(r.q, r.server,
			fmt.Sprintf("%s/%s", r.rr.Name, r.rr.Type),
			fmt.Sprintf("%d%s", r.rr.TTL, star), sec)
		key := fmt.Sprintf("ttl_%s_%s_%s", r.server, r.rr.Name, r.rr.Type)
		metrics[key] = float64(r.rr.TTL)
	}
	// The headline divergences.
	metrics["parent_ns_ttl"] = metrics["ttl_a.root-servers.net_cl._NS"]
	metrics["child_ns_ttl"] = metrics["ttl_a.nic.cl_cl._NS"]
	metrics["child_a_ttl"] = metrics["ttl_a.nic.cl_a.nic.cl._A"]

	return &Report{
		ID:      "Table 1",
		Title:   "TTLs for the same records differ between parent and child (.cl case study)",
		Text:    tbl.String(),
		Metrics: metrics,
	}
}
