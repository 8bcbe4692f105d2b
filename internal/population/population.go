// Package population describes the behavioral makeup of the deployed
// resolver base. The paper never sees a resolver's source code — it sees
// the aggregate of many implementations' choices. This package captures
// those choices as weighted profiles over resolver.Policy, calibrated to
// the paper's measurements:
//
//   - ~90 % of .uy NS answers carried the child's TTL (§3.2) → the bulk of
//     the population is child-centric;
//   - ~15 % of google.co answers were capped at 21599 s (§3.3) → a
//     Google-like capping profile;
//   - ~2.9 % of .uy answers showed the full parent TTL (§3.2) and OpenDNS
//     behaved parent-centrically (§4.4) → parent-centric and RFC 7706
//     local-root profiles;
//   - ~2.25 % of VPs stayed with the renumbered-away server (§4.2) → a
//     sticky profile.
package population

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

// Profile is one behavioral family with its share of the population.
type Profile struct {
	// Name labels the profile in reports ("bind-like", "opendns-like"...).
	Name string
	// Weight is the profile's share; weights in a mix are normalized.
	Weight float64
	// Policy is the resolver configuration this family runs.
	Policy resolver.Policy
}

// Mix is a weighted set of profiles.
type Mix []Profile

// DefaultMix is calibrated to the paper's findings (see package comment).
func DefaultMix() Mix {
	childBind := resolver.DefaultPolicy() // child-centric, 1-week cap
	childBind.RevalidateGlue = true
	childUnbound := resolver.DefaultPolicy()
	childUnbound.TTLCap = 86400
	childGoogle := resolver.DefaultPolicy()
	childGoogle.TTLCap = 21599
	childGoogle.CapAtServe = true
	parent := resolver.DefaultPolicy()
	parent.Centricity = resolver.ParentCentric
	localRoot := resolver.DefaultPolicy()
	localRoot.LocalRoot = true
	localRoot.Centricity = resolver.ParentCentric
	sticky := resolver.DefaultPolicy()
	sticky.Sticky = true
	decoupled := resolver.DefaultPolicy()
	decoupled.RefreshGlueOnReferral = false

	return Mix{
		{Name: "bind-like", Weight: 0.55, Policy: childBind},
		{Name: "unbound-like", Weight: 0.20, Policy: childUnbound},
		{Name: "google-like", Weight: 0.15, Policy: childGoogle},
		{Name: "opendns-like", Weight: 0.055, Policy: parent},
		{Name: "localroot", Weight: 0.02, Policy: localRoot},
		{Name: "sticky", Weight: 0.0225, Policy: sticky},
		{Name: "decoupled", Weight: 0.0025, Policy: decoupled},
	}
}

// AllChildCentric is a mix of one mainstream profile, for controlled
// experiments that want behavior held constant.
func AllChildCentric() Mix {
	return Mix{{Name: "bind-like", Weight: 1, Policy: resolver.DefaultPolicy()}}
}

// totalWeight sums the mix's weights.
func (m Mix) totalWeight() float64 {
	t := 0.0
	for _, p := range m {
		t += p.Weight
	}
	return t
}

// Validate rejects mixes that only worked by accident of implicit
// normalization: an empty mix, a zero/negative/non-finite weight, or a
// total weight that is not positive. Pick tolerated these silently (an
// empty mix fell back to a default profile, a zero-weight profile could
// still be returned as the last-row fallback); the workload compiler
// turns weights into arrival-rate shares, where such inputs must be
// loud errors rather than skewed results.
func (m Mix) Validate() error {
	if len(m) == 0 {
		return fmt.Errorf("population: empty mix")
	}
	for i, p := range m {
		if math.IsNaN(p.Weight) || math.IsInf(p.Weight, 0) {
			return fmt.Errorf("population: profile %d (%q) has non-finite weight %v", i, p.Name, p.Weight)
		}
		if p.Weight <= 0 {
			return fmt.Errorf("population: profile %d (%q) has non-positive weight %v", i, p.Name, p.Weight)
		}
	}
	return nil
}

// Shares returns each profile's normalized share of the population, in mix
// order. It errors on any mix Validate rejects.
func (m Mix) Shares() ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	total := m.totalWeight()
	shares := make([]float64, len(m))
	for i, p := range m {
		shares[i] = p.Weight / total
	}
	return shares, nil
}

// Pick samples a profile proportionally to weight.
func (m Mix) Pick(r *rand.Rand) Profile {
	if len(m) == 0 {
		return Profile{Name: "default", Weight: 1, Policy: resolver.DefaultPolicy()}
	}
	x := r.Float64() * m.totalWeight()
	for _, p := range m {
		if x < p.Weight {
			return p
		}
		x -= p.Weight
	}
	return m[len(m)-1]
}

// Builder constructs resolvers for a simulation from profiles: Build makes
// one private resolver, and atlas.NewFleet hands the same fields to farm.New
// for a shared public service.
type Builder struct {
	Net       simnet.Exchanger
	Clock     simnet.Clock
	RootHints []netip.Addr
	// LocalRootZone is handed to RFC 7706 profiles.
	LocalRootZone *zone.Zone
}

// Build instantiates a resolver at addr running the profile's policy.
func (b *Builder) Build(p Profile, addr netip.Addr, seed int64) *resolver.Resolver {
	r := resolver.New(addr, p.Policy, b.Net, b.Clock, b.RootHints, seed)
	if p.Policy.LocalRoot {
		r.LocalRootZone = b.LocalRootZone
	}
	return r
}
