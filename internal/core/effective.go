// Package core distills the paper's findings into an operator-facing
// library: given a zone's TTL configuration (which lives in multiple places
// — parent and child, NS and address records, in or out of bailiwick) and a
// model of the deployed resolver population, it computes the *effective*
// TTLs resolvers will actually honor (§3, §4), estimates cache hit rates,
// latency and query volume (§6.2), and issues the §6.3 recommendations.
package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dnsttl/internal/compile"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/zone"
)

// ZoneConfig is a domain's TTL configuration as its operator controls it.
type ZoneConfig struct {
	// Domain is the zone apex.
	Domain dnswire.Name
	// ParentNSTTL is the delegation NS TTL in the parent zone; many
	// registries fix it (com/net: 172800) and EPP cannot change it.
	ParentNSTTL uint32
	// ChildNSTTL is the NS TTL in the zone itself.
	ChildNSTTL uint32
	// ParentGlueTTL is the TTL of address glue in the parent (0 when the
	// servers are out of bailiwick and no glue exists).
	ParentGlueTTL uint32
	// ChildAddrTTL is the TTL of the nameserver address records in the
	// zone authoritative for them.
	ChildAddrTTL uint32
	// Bailiwick is the nameserver-host configuration.
	Bailiwick zone.BailiwickClass
	// ServiceTTL is the TTL of the service records clients look up
	// (e.g. the website's A/AAAA).
	ServiceTTL uint32
}

// PopulationModel is the resolver-behavior mix. Fractions should sum to ~1;
// Normalize fixes them up. The defaults follow the paper's measurements.
type PopulationModel struct {
	// ChildCentric resolvers honor the child's TTLs (§3: ~90 %).
	ChildCentric float64
	// ParentCentric resolvers honor the parent's (§3: ~10 %).
	ParentCentric float64
	// CapSeconds > 0 caps every effective TTL (e.g. 21599); CapShare is
	// the fraction of resolvers applying it.
	CapSeconds uint32
	CapShare   float64
}

// MeasuredPopulation returns the §3 mix: 90 % child-centric, 10 %
// parent-centric, 15 % capping at 21599 s.
func MeasuredPopulation() PopulationModel {
	return PopulationModel{ChildCentric: 0.9, ParentCentric: 0.1, CapSeconds: 21599, CapShare: 0.15}
}

// Normalize scales ChildCentric/ParentCentric to sum to 1.
func (p PopulationModel) Normalize() PopulationModel {
	s := p.ChildCentric + p.ParentCentric
	if s <= 0 {
		return PopulationModel{ChildCentric: 1}
	}
	p.ChildCentric /= s
	p.ParentCentric /= s
	return p
}

// TTLShare is one outcome of the effective-TTL computation: a fraction of
// the resolver population honoring a particular TTL.
type TTLShare struct {
	TTL   uint32
	Share float64
	// Why explains which mechanism produced this value.
	Why string
}

// Distribution is a set of TTL outcomes summing to share 1.
type Distribution []TTLShare

// Mean returns the share-weighted mean TTL.
func (d Distribution) Mean() float64 {
	m := 0.0
	for _, s := range d {
		m += float64(s.TTL) * s.Share
	}
	return m
}

// Min returns the smallest TTL with nonzero share.
func (d Distribution) Min() uint32 {
	min := uint32(math.MaxUint32)
	for _, s := range d {
		if s.Share > 0 && s.TTL < min {
			min = s.TTL
		}
	}
	if min == math.MaxUint32 {
		return 0
	}
	return min
}

// normalize merges equal TTLs and sorts ascending.
func (d Distribution) normalize() Distribution {
	byTTL := map[uint32]*TTLShare{}
	for _, s := range d {
		if s.Share <= 0 {
			continue
		}
		if e, ok := byTTL[s.TTL]; ok {
			e.Share += s.Share
			continue
		}
		cp := s
		byTTL[s.TTL] = &cp
	}
	out := make(Distribution, 0, len(byTTL))
	for _, e := range byTTL {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TTL < out[j].TTL })
	return out
}

// applyCap splits each share into capped and uncapped parts.
func applyCap(d Distribution, cap uint32, share float64) Distribution {
	if cap == 0 || share <= 0 {
		return d.normalize()
	}
	var out Distribution
	for _, s := range d {
		if s.TTL > cap {
			out = append(out,
				TTLShare{TTL: cap, Share: s.Share * share, Why: s.Why + ", capped"},
				TTLShare{TTL: s.TTL, Share: s.Share * (1 - share), Why: s.Why})
		} else {
			out = append(out, s)
		}
	}
	return out.normalize()
}

// EffectiveNSTTL computes the distribution of NS-set cache lifetimes across
// the population: child-centric resolvers use the child value, the
// parent-centric minority the parent's (§3).
func EffectiveNSTTL(cfg ZoneConfig, pop PopulationModel) Distribution {
	pop = pop.Normalize()
	d := Distribution{
		{TTL: cfg.ChildNSTTL, Share: pop.ChildCentric, Why: "child-centric (child NS TTL)"},
		{TTL: cfg.ParentNSTTL, Share: pop.ParentCentric, Why: "parent-centric (parent NS TTL)"},
	}
	return applyCap(d, pop.CapSeconds, pop.CapShare)
}

// EffectiveAddrTTL computes the nameserver-address cache lifetime. This is
// §4's result: for in-bailiwick servers the address is re-learned whenever
// the NS set expires, so its effective lifetime is min(NS TTL, address
// TTL); out-of-bailiwick addresses live their full TTL independently.
func EffectiveAddrTTL(cfg ZoneConfig, pop PopulationModel) Distribution {
	pop = pop.Normalize()
	var d Distribution
	switch cfg.Bailiwick {
	case zone.BailiwickInOnly, zone.BailiwickMixed:
		eff := cfg.ChildAddrTTL
		if cfg.ChildNSTTL < eff {
			eff = cfg.ChildNSTTL
		}
		d = append(d, TTLShare{TTL: eff, Share: pop.ChildCentric,
			Why: "in-bailiwick: address tied to NS expiry (min of the two)"})
		parentEff := cfg.ParentGlueTTL
		if parentEff == 0 {
			parentEff = cfg.ParentNSTTL
		}
		d = append(d, TTLShare{TTL: parentEff, Share: pop.ParentCentric,
			Why: "parent-centric: glue TTL"})
	default:
		d = append(d, TTLShare{TTL: cfg.ChildAddrTTL, Share: pop.ChildCentric,
			Why: "out-of-bailiwick: address cached independently for its full TTL"})
		parentEff := cfg.ParentGlueTTL
		if parentEff == 0 {
			parentEff = cfg.ChildAddrTTL
		}
		d = append(d, TTLShare{TTL: parentEff, Share: pop.ParentCentric,
			Why: "parent-centric: parent copy of the address"})
	}
	return applyCap(d, pop.CapSeconds, pop.CapShare)
}

// EffectiveServiceTTL is the distribution for the service records
// themselves: service records exist only in the child, so only caps differ
// across the population.
func EffectiveServiceTTL(cfg ZoneConfig, pop PopulationModel) Distribution {
	d := Distribution{{TTL: cfg.ServiceTTL, Share: 1, Why: "service record (child only)"}}
	return applyCap(d, pop.CapSeconds, pop.CapShare)
}

// HitRate is the classic TTL-cache model (Jung et al. [26], the paper's
// related work): for Poisson arrivals at rate lambda (queries/second) and a
// TTL of T seconds, the cache answers lambda·T of every lambda·T+1 queries.
func HitRate(ttl uint32, lambda float64) float64 {
	return compile.SteadyHit(lambda, float64(ttl))
}

// Estimates summarizes the client experience and authoritative load a
// configuration produces under a query workload.
type Estimates struct {
	// HitRate is the expected cache hit fraction.
	HitRate float64
	// MeanLatency is the expected per-query latency.
	MeanLatency time.Duration
	// AuthQueriesPerHour is the expected authoritative query load per
	// resolver.
	AuthQueriesPerHour float64
}

// Workload describes client demand at one recursive resolver.
type Workload struct {
	// QueriesPerSecond is the arrival rate for the service name.
	QueriesPerSecond float64
	// CacheHitLatency and MissLatency are the two client outcomes; the
	// paper's §6.1 contrast ("a 1 ms cache hit... a query to the
	// authoritative is usually fast, less than 100 ms").
	CacheHitLatency time.Duration
	MissLatency     time.Duration
}

// DefaultWorkload is a moderately popular name at a resolver.
func DefaultWorkload() Workload {
	return Workload{
		QueriesPerSecond: 0.02, // ~72 queries/hour
		CacheHitLatency:  4 * time.Millisecond,
		MissLatency:      40 * time.Millisecond,
	}
}

// Estimate computes Estimates for a service-record TTL distribution.
func Estimate(d Distribution, w Workload) Estimates {
	var e Estimates
	for _, s := range d {
		h := HitRate(s.TTL, w.QueriesPerSecond)
		e.HitRate += s.Share * h
		lat := time.Duration(float64(w.CacheHitLatency)*h + float64(w.MissLatency)*(1-h))
		e.MeanLatency += time.Duration(s.Share * float64(lat))
		e.AuthQueriesPerHour += s.Share * w.QueriesPerSecond * 3600 * (1 - h)
	}
	return e
}

// String renders a distribution.
func (d Distribution) String() string {
	out := ""
	for _, s := range d {
		out += fmt.Sprintf("  %6.1f%%  TTL %-7d %s\n", s.Share*100, s.TTL, s.Why)
	}
	return out
}
