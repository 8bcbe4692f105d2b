// Package dnsttl is a library-scale reproduction of "Cache Me If You Can:
// Effects of DNS Time-to-Live" (Moura, Heidemann, Schmidt, Hardaker —
// IMC 2019). It bundles:
//
//   - a full DNS substrate built from scratch on the standard library:
//     wire codec, zones, authoritative server, iterative caching resolver
//     with the behavioral families the paper measures (child/parent
//     centricity, NS/A lifetime coupling, TTL caps, stickiness, RFC 7706
//     local root, serve-stale);
//   - a simulated measurement platform (virtual clock, regional latency,
//     anycast, a RIPE-Atlas-style vantage-point fleet, an ENTRADA-style
//     passive warehouse, list crawler and content classifier);
//   - drivers that regenerate every table and figure of the paper's
//     evaluation (see RunExperiment and the repository's EXPERIMENTS.md);
//   - an operator-facing effective-TTL model and recommendation engine
//     distilling the paper's §6 guidance.
//
// The package root re-exports the pieces a downstream user needs; the
// implementation lives under internal/.
package dnsttl

import (
	"dnsttl/internal/core"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/population"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

// Wire-format essentials.
type (
	// Name is a canonicalized fully-qualified domain name.
	Name = dnswire.Name
	// Type is an RR type code.
	Type = dnswire.Type
	// RR is one resource record.
	RR = dnswire.RR
	// Message is a DNS message.
	Message = dnswire.Message
	// Header is the DNS message header.
	Header = dnswire.Header
	// Question is a query tuple.
	Question = dnswire.Question
)

// Common RR types and rcodes.
const (
	TypeA   = dnswire.TypeA
	TypeTXT = dnswire.TypeTXT

	RCodeNoError  = dnswire.RCodeNoError
	RCodeServFail = dnswire.RCodeServFail
)

// NewName canonicalizes a domain name.
func NewName(s string) Name { return dnswire.NewName(s) }

// Encode serializes a message to wire format.
func Encode(m *Message) ([]byte, error) { return dnswire.Encode(m) }

// Decode parses a wire-format message.
func Decode(wire []byte) (*Message, error) { return dnswire.Decode(wire) }

// Zone model.
type (
	// Zone is a zone of authority.
	Zone = zone.Zone
	// BailiwickClass classifies a domain's nameserver-host configuration.
	BailiwickClass = zone.BailiwickClass
)

// Bailiwick classes.
const (
	BailiwickInOnly  = zone.BailiwickInOnly
	BailiwickOutOnly = zone.BailiwickOutOnly
	BailiwickMixed   = zone.BailiwickMixed
)

// NewZone creates an empty zone rooted at origin.
func NewZone(origin Name) *Zone { return zone.New(origin) }

// Resolver behavior.
type (
	// Policy configures a resolver's behavioral family.
	Policy = resolver.Policy
	// RetryPolicy configures the resolver's failure handling: attempts,
	// exponential backoff with deterministic jitter, hedged queries, and
	// SRTT-based server ordering. The zero value preserves legacy
	// single-shot semantics.
	RetryPolicy = resolver.RetryPolicy
)

// ParentCentric makes a Policy prefer the parent zone's TTLs; the zero
// value of Policy.Centricity is child-centric.
const ParentCentric = resolver.ParentCentric

// DefaultPolicy is a mainstream child-centric resolver configuration.
func DefaultPolicy() Policy { return resolver.DefaultPolicy() }

// Clocks.
type (
	// Clock abstracts time for TTL decay.
	Clock = simnet.Clock
	// VirtualClock is a manually advanced clock for simulations.
	VirtualClock = simnet.VirtualClock
)

// NewVirtualClock returns a virtual clock at the simulation epoch.
func NewVirtualClock() *VirtualClock { return simnet.NewVirtualClock() }

// FaultSchedule is a deterministic, clock-driven script of fault windows
// (outage, loss burst, latency spike, SERVFAIL storm, truncation,
// flapping) — the chaos plane.
type FaultSchedule = simnet.FaultSchedule

// ParseFaultSchedule parses the textual schedule grammar, e.g.
// "outage:192.88.0.7:1200s+2400s;loss:*:0s+600s:0.5". See the simnet
// package for the full grammar.
func ParseFaultSchedule(spec string) (*FaultSchedule, error) {
	return simnet.ParseFaultSchedule(spec)
}

// Operator guidance (the paper's §6, as a library).
type (
	// ZoneConfig is a domain's TTL configuration.
	ZoneConfig = core.ZoneConfig
	// PopulationModel is the resolver-behavior mix: weighted profiles,
	// each a resolver.Policy, the same type the simulation runs.
	PopulationModel = population.Mix
	// Scenario captures the operational factors of §6.1.
	Scenario = core.Scenario
	// Recommendation is one advisor finding.
	Recommendation = core.Recommendation
	// Distribution is a set of effective-TTL outcomes.
	Distribution = core.Distribution
	// Workload describes client demand for estimates.
	Workload = core.Workload
	// Estimates summarizes expected hit rate, latency and load.
	Estimates = core.Estimates
)

// MeasuredPopulation returns the resolver mix calibrated to the paper's
// measurements, the one every simulated fleet runs: 92.5 % child-centric
// (15 % behind a Google-style serve-time cap at 21599 s) and 7.5 %
// parent-centric (OpenDNS-like and RFC 7706 local-root).
func MeasuredPopulation() PopulationModel { return population.DefaultMix() }

// EffectiveNSTTL computes which NS TTLs the population will honor.
func EffectiveNSTTL(cfg ZoneConfig, pop PopulationModel) Distribution {
	return core.EffectiveNSTTL(cfg, pop)
}

// EffectiveAddrTTL computes the nameserver-address cache lifetimes,
// including the §4 in-bailiwick NS/A coupling.
func EffectiveAddrTTL(cfg ZoneConfig, pop PopulationModel) Distribution {
	return core.EffectiveAddrTTL(cfg, pop)
}

// EffectiveServiceTTL computes the service-record lifetimes.
func EffectiveServiceTTL(cfg ZoneConfig, pop PopulationModel) Distribution {
	return core.EffectiveServiceTTL(cfg, pop)
}

// HitRate is the Jung et al. TTL-cache model: λT/(1+λT).
func HitRate(ttl uint32, lambda float64) float64 { return core.HitRate(ttl, lambda) }

// Estimate computes expected hit rate, latency and authoritative load.
func Estimate(d Distribution, w Workload) Estimates { return core.Estimate(d, w) }

// DefaultWorkload is a moderately popular name at one resolver.
func DefaultWorkload() Workload { return core.DefaultWorkload() }

// Advise runs the §6 recommendation rules over a configuration.
func Advise(cfg ZoneConfig, sc Scenario) []Recommendation { return core.Advise(cfg, sc) }
