// Package entrada is the passive-measurement warehouse of §3.4: it ingests
// query streams captured at authoritative servers and computes the
// per-(resolver, query-name) statistics behind Figures 3 and 4 — query
// counts per group, interarrival times, and the resolver centricity census
// ("at least half of recursive resolvers are child-centric").
package entrada

import (
	"net/netip"
	"sort"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/stats"
)

// Row is one captured query.
type Row struct {
	Time     time.Time
	Resolver netip.Addr
	Name     dnswire.Name
	Type     dnswire.Type
}

// GroupKey identifies a (resolver, query-name) group. Different names may
// sit in the cache with different TTLs, so the pair — not the resolver
// alone — is the unit of caching behavior.
type GroupKey struct {
	Resolver netip.Addr
	Name     dnswire.Name
}

// Group aggregates one (resolver, query-name) stream.
type Group struct {
	Key   GroupKey
	Times []time.Time
}

// Queries returns the group's query count.
func (g *Group) Queries() int { return len(g.Times) }

// Interarrivals returns successive gaps, optionally dropping gaps below
// minGap (the paper filters <2 s to remove retransmissions).
func (g *Group) Interarrivals(minGap time.Duration) []time.Duration {
	var out []time.Duration
	for i := 1; i < len(g.Times); i++ {
		gap := g.Times[i].Sub(g.Times[i-1])
		if gap >= minGap {
			out = append(out, gap)
		}
	}
	return out
}

// MinInterarrival returns the smallest gap ≥ minGap, and false if none.
func (g *Group) MinInterarrival(minGap time.Duration) (time.Duration, bool) {
	gaps := g.Interarrivals(minGap)
	if len(gaps) == 0 {
		return 0, false
	}
	min := gaps[0]
	for _, d := range gaps[1:] {
		if d < min {
			min = d
		}
	}
	return min, true
}

// Warehouse holds captured rows grouped for analysis.
type Warehouse struct {
	groups map[GroupKey]*Group
	rows   int
}

// NewWarehouse creates an empty warehouse.
func NewWarehouse() *Warehouse {
	return &Warehouse{groups: make(map[GroupKey]*Group)}
}

// Ingest adds one row.
func (w *Warehouse) Ingest(r Row) {
	k := GroupKey{Resolver: r.Resolver, Name: r.Name}
	g := w.groups[k]
	if g == nil {
		g = &Group{Key: k}
		w.groups[k] = g
	}
	g.Times = append(g.Times, r.Time)
	w.rows++
}

// Rows returns the ingested row count.
func (w *Warehouse) Rows() int { return w.rows }

// Groups returns all groups, times sorted.
func (w *Warehouse) Groups() []*Group {
	out := make([]*Group, 0, len(w.groups))
	for _, g := range w.groups {
		sort.Slice(g.Times, func(i, j int) bool { return g.Times[i].Before(g.Times[j]) })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Resolver != out[j].Key.Resolver {
			return out[i].Key.Resolver.Less(out[j].Key.Resolver)
		}
		return out[i].Key.Name < out[j].Key.Name
	})
	return out
}

// QueryCountSample returns per-group query counts (Figure 3's CDF),
// counting only gaps ≥ minGap when minGap > 0 (the red "filtered" line).
func (w *Warehouse) QueryCountSample(minGap time.Duration) *stats.Sample {
	s := stats.NewSample()
	for _, g := range w.Groups() {
		if minGap <= 0 {
			s.Add(float64(g.Queries()))
			continue
		}
		// Collapse bursts: count queries separated by ≥ minGap.
		n := 0
		var last time.Time
		for i, t := range g.Times {
			if i == 0 || t.Sub(last) >= minGap {
				n++
				last = t
			}
		}
		s.Add(float64(n))
	}
	return s
}

// MinInterarrivalSample returns each multi-query group's minimum
// interarrival in seconds (Figure 4's CDF).
func (w *Warehouse) MinInterarrivalSample(minGap time.Duration) *stats.Sample {
	s := stats.NewSample()
	for _, g := range w.Groups() {
		if min, ok := g.MinInterarrival(minGap); ok {
			s.Add(min.Seconds())
		}
	}
	return s
}

// Census is the §3.4 centricity breakdown.
type Census struct {
	Groups      int
	MultiQuery  int // groups with >1 query: child-centric evidence
	SingleQuery int
	// SingleButMultiElsewhere counts single-query groups whose resolver
	// queried other names more than once — evidence the resolver is
	// child-centric after all (the paper's 14 %).
	SingleButMultiElsewhere int
	UniqueResolvers         int
}

// CentricityCensus computes the census.
func (w *Warehouse) CentricityCensus() Census {
	c := Census{}
	multiResolvers := make(map[netip.Addr]bool)
	resolvers := make(map[netip.Addr]bool)
	var singles []*Group
	for _, g := range w.Groups() {
		c.Groups++
		resolvers[g.Key.Resolver] = true
		if g.Queries() > 1 {
			c.MultiQuery++
			multiResolvers[g.Key.Resolver] = true
		} else {
			c.SingleQuery++
			singles = append(singles, g)
		}
	}
	for _, g := range singles {
		if multiResolvers[g.Key.Resolver] {
			c.SingleButMultiElsewhere++
		}
	}
	c.UniqueResolvers = len(resolvers)
	return c
}

// FractionMultiQuery is the paper's 52 % headline: the share of groups that
// queried more than once over the window.
func (c Census) FractionMultiQuery() float64 {
	if c.Groups == 0 {
		return 0
	}
	return float64(c.MultiQuery) / float64(c.Groups)
}
