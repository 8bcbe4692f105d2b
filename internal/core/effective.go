// Package core distills the paper's findings into an operator-facing
// library: given a zone's TTL configuration (which lives in multiple places
// — parent and child, NS and address records, in or out of bailiwick) and a
// resolver population (a population.Mix, the one the simulation runs), it
// computes the *effective* TTLs resolvers will actually honor (§3, §4),
// estimates cache hit rates, latency and query volume (§6.2), and issues the
// §6.3 recommendations.
//
// Each profile's resolver.Policy decides its lifetimes, by the rule the
// planet compiler also applies. Sticky server selection (§4.4) is not a
// lifetime: a sticky resolver's cache expires like any other and it only
// keeps asking the server it learned first, so no Effective*TTL models it.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"dnsttl/internal/compile"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/population"
	"dnsttl/internal/resolver"
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

// normalize merges equal TTLs, keeping the first one's Why, drops empty
// shares and sorts ascending, in place.
func (d Distribution) normalize() Distribution {
	slices.SortStableFunc(d, func(a, b TTLShare) int { return cmp.Compare(a.TTL, b.TTL) })
	out := d[:0]
	for _, s := range d {
		switch {
		case s.Share <= 0:
		case len(out) > 0 && out[len(out)-1].TTL == s.TTL:
			out[len(out)-1].Share += s.Share
		default:
			out = append(out, s)
		}
	}
	return out
}

// lifetimes is the one rule behind the Effective*TTL functions. It sums mix
// one profile at a time: ttl picks the TTL the profile's Policy honors and
// says why, and Policy.CacheLifetime applies the profile's cap the way its
// cache stores it, so a serve-time cap does not shorten the lifetime. A mix
// that population.Mix.Validate rejects yields an empty Distribution.
func lifetimes(mix population.Mix, ttl func(resolver.Policy) (uint32, string)) Distribution {
	shares, err := mix.Shares()
	if err != nil {
		return nil
	}
	var d Distribution
	for i, p := range mix {
		t, why := ttl(p.Policy)
		if life := p.Policy.CacheLifetime(t); life < t {
			t, why = life, why+", capped"
		}
		d = append(d, TTLShare{TTL: t, Share: shares[i], Why: why})
	}
	return d.normalize()
}

// EffectiveNSTTL computes the distribution of NS-set cache lifetimes across
// mix: child-centric resolvers use the child value, the parent-centric
// minority the parent's (§3).
func EffectiveNSTTL(cfg ZoneConfig, mix population.Mix) Distribution {
	return lifetimes(mix, func(p resolver.Policy) (uint32, string) {
		if p.HonorsParent() {
			return cfg.ParentNSTTL, "parent-centric (parent NS TTL)"
		}
		return cfg.ChildNSTTL, "child-centric (child NS TTL)"
	})
}

// EffectiveAddrTTL computes the nameserver-address cache lifetime. This is
// §4's result: for in-bailiwick servers a resolver that refreshes glue on
// referral re-learns the address whenever its NS set expires, so the
// address lives min(NS TTL, address TTL) on the side it honors; one that
// keeps a fresh cached address, and every out-of-bailiwick address, lives
// the full address TTL. Without parent glue a parent-centric resolver
// learns the address from its own zone, as a child-centric one does.
func EffectiveAddrTTL(cfg ZoneConfig, mix population.Mix) Distribution {
	inBailiwick := cfg.Bailiwick == zone.BailiwickInOnly || cfg.Bailiwick == zone.BailiwickMixed
	return lifetimes(mix, func(p resolver.Policy) (uint32, string) {
		parent := p.HonorsParent() && cfg.ParentGlueTTL > 0
		switch {
		case !inBailiwick && parent:
			return cfg.ParentGlueTTL, "parent-centric: parent copy of the address"
		case !inBailiwick:
			return cfg.ChildAddrTTL, "out-of-bailiwick: address cached independently for its full TTL"
		case parent && p.RefreshGlueOnReferral:
			return min(cfg.ParentNSTTL, cfg.ParentGlueTTL), "parent-centric: glue tied to the parent NS expiry (min of the two)"
		case parent:
			return cfg.ParentGlueTTL, "parent-centric: glue TTL"
		case p.RefreshGlueOnReferral:
			return min(cfg.ChildNSTTL, cfg.ChildAddrTTL), "in-bailiwick: address tied to NS expiry (min of the two)"
		}
		return cfg.ChildAddrTTL, "in-bailiwick, glue not refreshed on referral: address cached for its full TTL"
	})
}

// EffectiveServiceTTL is the distribution for the service records
// themselves: service records exist only in the child, so only caps differ
// across the population.
func EffectiveServiceTTL(cfg ZoneConfig, mix population.Mix) Distribution {
	return lifetimes(mix, func(resolver.Policy) (uint32, string) {
		return cfg.ServiceTTL, "service record (child only)"
	})
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
