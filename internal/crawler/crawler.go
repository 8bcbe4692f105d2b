// Package crawler reimplements the paper's §5.1 measurement pipeline: for
// each domain in a list, find its authoritative servers through the parent,
// query the child directly (no shared recursives) for NS, A, AAAA, MX,
// DNSKEY and CNAME records, and aggregate record counts, unique-value
// ratios, TTL distributions, zero-TTL tails and bailiwick configurations —
// the raw material of Tables 5, 8 and 9 and Figure 9.
package crawler

import (
	"fmt"
	"net/netip"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
	"dnsttl/internal/stats"
	"dnsttl/internal/zone"
	"dnsttl/internal/zonegen"
)

// CrawledTypes are the record types retrieved per domain, in report order.
var CrawledTypes = []dnswire.Type{
	dnswire.TypeNS, dnswire.TypeA, dnswire.TypeAAAA,
	dnswire.TypeMX, dnswire.TypeDNSKEY, dnswire.TypeCNAME,
}

// TypeStats aggregates one record type over a list.
type TypeStats struct {
	// Count is the total records seen; Unique the distinct RDATA values.
	Count  int
	Unique int
	// ZeroTTLDomains counts domains serving this type with TTL 0
	// (Table 8).
	ZeroTTLDomains int
	// TTLs collects one observation per record for the Figure 9 CDFs.
	TTLs *stats.Sample

	uniq map[string]struct{}
}

func newTypeStats() *TypeStats {
	return &TypeStats{TTLs: stats.NewSample(), uniq: make(map[string]struct{})}
}

func (ts *TypeStats) observe(rr dnswire.RR) {
	ts.Count++
	// Uniqueness is by RDATA value: shared hosting means many domains
	// pointing at the same nameserver host or address (Table 5's ratios).
	key := rr.Data.String()
	if _, ok := ts.uniq[key]; !ok {
		ts.uniq[key] = struct{}{}
		ts.Unique++
	}
	ts.TTLs.Add(float64(rr.TTL))
}

// Ratio returns Count/Unique, the Table 5 shared-hosting indicator.
func (ts *TypeStats) Ratio() float64 {
	if ts.Unique == 0 {
		return 0
	}
	return float64(ts.Count) / float64(ts.Unique)
}

// Result is one list's crawl summary.
type Result struct {
	List       zonegen.List
	Domains    int
	Responsive int
	Discarded  int
	// Per-type aggregates.
	Types map[dnswire.Type]*TypeStats
	// NS-query outcome census (Table 9).
	CNAMEAnswers int
	SOAAnswers   int
	RespondNS    int
	OutOnly      int
	InOnly       int
	Mixed        int
	// Parent/child NS-TTL comparison — the "full comparison of parent and
	// child" the paper flags as future work (§5.1). Counts are per domain
	// with both sides observed; Ratios collects child/parent TTL ratios.
	ChildShorter, ChildEqual, ChildLonger int
	ParentChildRatios                     *stats.Sample
	// PerDomainContent groups responsive domains for the DMap join.
	Content map[zonegen.ContentClass][]dnswire.Name
}

// Crawler runs crawls against a generated world. One Crawler is one
// vantage: it is not safe for concurrent use, but any number of Crawlers may
// run at once.
type Crawler struct {
	World *zonegen.World
	// Addr is the crawler's source address (the paper crawled from one
	// EC2 vantage).
	Addr netip.Addr

	queryID uint16 // last transaction ID sent
}

// New creates a crawler for w.
func New(w *zonegen.World) *Crawler {
	return &Crawler{World: w, Addr: netip.MustParseAddr("10.200.0.1")}
}

func (c *Crawler) exchange(dst netip.Addr, name dnswire.Name, t dnswire.Type) (*dnswire.Message, error) {
	c.queryID++
	resp, _, err := simnet.Ask(c.World.Net, c.Addr, dst, dnswire.NewIterativeQuery(c.queryID, name, t))
	return resp, err
}

// childServers finds the domain's authoritative addresses the way a crawler
// must: ask the parent for the delegation and resolve the NS hosts (glue
// first, then the provider host directory). The parent-side NS TTL is
// returned for the parent/child comparison (0 when unseen).
func (c *Crawler) childServers(d *zonegen.Domain) ([]netip.Addr, uint32, error) {
	resp, err := c.exchange(d.ParentAddr, d.Name, dnswire.TypeNS)
	if err != nil {
		return nil, 0, fmt.Errorf("parent query: %w", err)
	}
	var hosts []dnswire.Name
	var parentTTL uint32
	glue := make(map[dnswire.Name]netip.Addr)
	nsRRs := resp.Authority
	if len(resp.Answer) > 0 {
		nsRRs = resp.Answer // parent may be authoritative (root for TLDs)
	}
	for _, rr := range nsRRs {
		if ns, ok := rr.Data.(dnswire.NS); ok {
			hosts = append(hosts, ns.Host)
			if rr.Name == d.Name {
				parentTTL = rr.TTL
			}
		}
	}
	for _, rr := range resp.Additional {
		if a, ok := rr.Data.(dnswire.A); ok {
			glue[rr.Name] = a.Addr
		}
	}
	var addrs []netip.Addr
	seen := map[netip.Addr]bool{}
	for _, h := range hosts {
		addr, ok := glue[h]
		if !ok {
			addr, ok = c.World.HostAddr[h]
		}
		if ok && !seen[addr] {
			seen[addr] = true
			addrs = append(addrs, addr)
		}
	}
	return addrs, parentTTL, nil
}

// CrawlDomain measures one domain into res.
func (c *Crawler) CrawlDomain(d *zonegen.Domain, res *Result) {
	res.Domains++
	addrs, parentNSTTL, err := c.childServers(d)
	if err != nil || len(addrs) == 0 {
		res.Discarded++
		return
	}
	child := addrs[0]

	// One probe query decides responsiveness (the paper's "responded to
	// at least one of our queries").
	nsResp, err := c.exchange(child, d.Name, dnswire.TypeNS)
	if err != nil {
		res.Discarded++
		return
	}
	res.Responsive++

	// Classify the NS answer for Table 9.
	nsAnswers := nsResp.AnswersFor(d.Name, dnswire.TypeNS)
	sawCNAME := len(nsResp.AnswersFor(d.Name, dnswire.TypeCNAME)) > 0
	switch {
	case sawCNAME:
		res.CNAMEAnswers++
	case len(nsAnswers) == 0:
		// NODATA (SOA in authority) or NXDOMAIN.
		res.SOAAnswers++
	default:
		res.RespondNS++
		// Parent/child NS-TTL comparison (the paper's declared future
		// work): the child's authoritative value vs the delegation's.
		if parentNSTTL > 0 {
			childTTL := nsAnswers[0].TTL
			switch {
			case childTTL < parentNSTTL:
				res.ChildShorter++
			case childTTL == parentNSTTL:
				res.ChildEqual++
			default:
				res.ChildLonger++
			}
			res.ParentChildRatios.Add(float64(childTTL) / float64(parentNSTTL))
		}
		var hosts []dnswire.Name
		for _, rr := range nsAnswers {
			hosts = append(hosts, rr.Data.(dnswire.NS).Host)
		}
		switch zone.ClassifyBailiwick(d.Name, hosts) {
		case zone.BailiwickOutOnly:
			res.OutOnly++
		case zone.BailiwickInOnly:
			res.InOnly++
		case zone.BailiwickMixed:
			res.Mixed++
		}
	}

	// Retrieve every crawled type from the child.
	zeroSeen := map[dnswire.Type]bool{}
	record := func(rr dnswire.RR) {
		ts := res.Types[rr.Type]
		if ts == nil {
			return
		}
		ts.observe(rr)
		if rr.TTL == 0 && !zeroSeen[rr.Type] {
			zeroSeen[rr.Type] = true
			ts.ZeroTTLDomains++
		}
	}
	cnameCounted := false
	for _, t := range CrawledTypes {
		var resp *dnswire.Message
		if t == dnswire.TypeNS {
			resp = nsResp
		} else {
			resp, err = c.exchange(child, d.Name, t)
			if err != nil {
				continue
			}
		}
		for _, rr := range resp.Answer {
			if rr.Name != d.Name {
				continue
			}
			if rr.Type == t && t != dnswire.TypeCNAME {
				record(rr)
			}
			// CNAMEs surface in answers to any query type; count once per
			// domain.
			if rr.Type == dnswire.TypeCNAME && !cnameCounted {
				record(rr)
				cnameCounted = true
			}
		}
	}

	// Root list: report the NS hosts' A/AAAA instead (TLDs own none).
	if d.List == zonegen.Root && len(nsAnswers) > 0 {
		for _, rr := range nsAnswers {
			host := rr.Data.(dnswire.NS).Host
			srv := child
			if !host.IsSubdomainOf(d.Name) {
				if a, ok := c.World.HostAddr[host]; ok {
					srv = a
				}
			}
			for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
				resp, err := c.exchange(srv, host, t)
				if err != nil {
					continue
				}
				for _, a := range resp.AnswersFor(host, t) {
					record(a)
				}
			}
		}
	}

	if d.List == zonegen.NL {
		res.Content[d.Content] = append(res.Content[d.Content], d.Name)
	}
}

// CrawlList crawls every domain of one list.
func (c *Crawler) CrawlList(l zonegen.List) *Result {
	res := &Result{
		List:              l,
		Types:             make(map[dnswire.Type]*TypeStats),
		Content:           make(map[zonegen.ContentClass][]dnswire.Name),
		ParentChildRatios: stats.NewSample(),
	}
	for _, t := range CrawledTypes {
		res.Types[t] = newTypeStats()
	}
	for _, d := range c.World.Lists[l] {
		c.CrawlDomain(d, res)
	}
	return res
}

// CrawlAll crawls all five lists in the paper's order.
func (c *Crawler) CrawlAll() map[zonegen.List]*Result {
	out := make(map[zonegen.List]*Result, len(zonegen.AllLists))
	for _, l := range zonegen.AllLists {
		out[l] = c.CrawlList(l)
	}
	return out
}

// ResponsiveRatio returns Responsive/Domains.
func (r *Result) ResponsiveRatio() float64 {
	if r.Domains == 0 {
		return 0
	}
	return float64(r.Responsive) / float64(r.Domains)
}

// PercentOutOnly returns the Table 9 "percent out" row.
func (r *Result) PercentOutOnly() float64 {
	if r.RespondNS == 0 {
		return 0
	}
	return 100 * float64(r.OutOnly) / float64(r.RespondNS)
}
