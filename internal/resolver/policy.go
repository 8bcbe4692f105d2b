// Package resolver implements an iterative (recursive-resolving) DNS server
// over the cache and simnet substrates. One implementation with policy
// knobs reproduces the behavioral families the paper observes in the wild:
// child- vs parent-centric TTL preference (§3), coupled vs independent
// NS/A-record lifetimes for in-bailiwick servers (§4.2–4.3), sticky
// resolvers (§4.4), TTL capping (§3.3), RFC 7706 local-root mirroring, and
// serve-stale.
package resolver

import "dnsttl/internal/cache"

// Centricity says which zone's TTL a resolver effectively honors for
// records that are duplicated at a delegation (NS sets and glue addresses).
type Centricity uint8

const (
	// ChildCentric resolvers follow RFC 2181 §5.4.1: they treat parent-side
	// referral data as non-authoritative, so explicit queries for NS or
	// nameserver addresses are forwarded to the child zone and the child's
	// TTLs govern the cache. Most deployed resolvers behave this way
	// (~90 % of .uy queries in §3.2).
	ChildCentric Centricity = iota
	// ParentCentric resolvers answer from referral/glue data directly and
	// never ask the child for records the parent already supplied, so the
	// parent's (often much longer) TTLs govern. OpenDNS exhibited this in
	// §4.4.
	ParentCentric
)

func (c Centricity) String() string {
	if c == ParentCentric {
		return "parent-centric"
	}
	return "child-centric"
}

// Policy is the behavioral configuration of one resolver.
type Policy struct {
	// Centricity selects parent- vs child-centric TTL preference.
	Centricity Centricity
	// RefreshGlueOnReferral controls what happens when a re-fetched
	// referral carries glue for an address that is still fresh in cache.
	// True (the common behavior, §4.2) replaces the cached address, which
	// couples the effective A lifetime to the NS TTL for in-bailiwick
	// servers; false keeps the cached address until its own TTL expires.
	RefreshGlueOnReferral bool
	// TTLCap bounds the TTLs this resolver honors; 0 means no cap. 21599
	// reproduces the Google Public DNS behavior of §3.3; BIND's default
	// is one week.
	TTLCap uint32
	// CapAtServe selects where the cap applies. False (BIND-style)
	// truncates the stored TTL, so an over-cap record expires after
	// TTLCap seconds. True (Google-style) stores the full TTL and clamps
	// only the *reported* value — which is why §3.3 sees a steady stream
	// of answers at exactly 21599 s: the remaining TTL stays above the
	// cap for days.
	CapAtServe bool
	// RevalidateGlue makes the resolver fetch an authoritative copy of a
	// nameserver address it only knows from glue (BIND-style credibility
	// upgrading). These explicit NS-host address queries are what the .nl
	// authoritatives observe in §3.4 — and their spacing tracks the child
	// TTL, producing Figure 4's bumps at one-hour multiples.
	RevalidateGlue bool
	// Sticky resolvers keep using the first server address they learned
	// for a zone, ignoring TTL expiry for server selection (§4.4).
	Sticky bool
	// LocalRoot mirrors the root zone locally (RFC 7706): referrals for
	// TLDs are answered from the mirror at zero network cost, and carry
	// the parent's TTLs.
	LocalRoot bool
	// ServeStale answers from expired cache entries when all
	// authoritative servers for a zone fail (RFC 8767).
	ServeStale bool
	// Validate enables DNSSEC validation: answers from signed zones must
	// verify against the zone's DNSKEY or the resolution fails, and
	// answers are never synthesized from unsigned parent-side data — a
	// validating resolver is structurally child-centric (§2, §6.3).
	Validate bool
	// PrefetchFraction, when non-zero, turns on refresh-ahead (the Pappas
	// et al. proposal discussed in §7): a cache hit refreshes the record
	// when its remaining TTL has fallen to this fraction of the stored TTL
	// (0.1 = last 10 % of lifetime), instead of letting it lapse. A
	// fractional trigger treats a 30 s and a 1-day record alike, where a
	// fixed window in seconds would refresh short records on nearly every
	// hit.
	PrefetchFraction float64
	// PrefetchBudget bounds refresh-ahead load with a token bucket on the
	// resolver's clock, built by New: bursts of up to this many prefetches,
	// this many per minute on average (coalesced and denied triggers are
	// observable via Metrics). Zero means unlimited.
	PrefetchBudget int
	// Retry configures the retry/backoff/hedging plane: per-step attempt
	// budgets, exponential backoff with deterministic jitter, hedged second
	// queries, and SRTT-based server ordering. The zero value keeps the
	// legacy behavior.
	Retry RetryPolicy
}

// negTTLFallback is the negative-cache TTL, in seconds, used when a
// negative response carries no SOA to derive one from (RFC 2308 §5 leaves
// this implementation-defined). Like every other TTL it is subject to
// TTLCap.
const negTTLFallback uint32 = 60

// legacyAttempts is how many distinct servers are tried per step before
// giving up when Retry.Attempts is unset.
const legacyAttempts = 3

// prefetchTriggered reports whether a cache hit with rem seconds left on a
// record stored with ttl seconds should trigger a refresh-ahead.
func (p Policy) prefetchTriggered(rem, ttl uint32) bool {
	return p.PrefetchFraction > 0 && float64(rem) <= p.PrefetchFraction*float64(ttl)
}

// CacheConfig derives the cache configuration this policy implies: the TTL
// cap lands in storage (BIND-style) or stays out of it (CapAtServe), the
// serve-stale flag carries over. Callers add capacity/byte bounds
// and an eviction policy on top. resolver.New, farm.New, and the library
// Client all derive their caches through here so the TTL semantics cannot
// drift apart.
func (p Policy) CacheConfig() cache.Config {
	storageCap := p.TTLCap
	if p.CapAtServe {
		storageCap = 0 // full TTL in cache; clamp on the way out
	}
	return cache.Config{
		MaxTTL:     storageCap,
		ServeStale: p.ServeStale,
	}
}

// ClampTTL applies the policy's cap to a TTL — the value this resolver
// reports to clients.
func (p Policy) ClampTTL(ttl uint32) uint32 {
	if p.TTLCap > 0 && ttl > p.TTLCap {
		return p.TTLCap
	}
	return ttl
}

// CacheLifetime is the number of seconds a record with authoritative TTL
// ttl actually lives in this resolver's cache — the T in the Jung et al.
// renewal model λT/(1+λT). A BIND-style cap (CapAtServe false) truncates
// the stored TTL, so the cap bounds the lifetime; a Google-style serve
// clamp (CapAtServe true) stores the full TTL and only clamps reported
// values, so the lifetime is the uncapped TTL.
func (p Policy) CacheLifetime(ttl uint32) uint32 {
	if p.CapAtServe {
		return ttl
	}
	return p.ClampTTL(ttl)
}

// HonorsParent reports whether a resolver running p honors the parent's
// copy of data duplicated at a delegation, answering from referral NS sets
// and glue. A validating resolver never answers from unsigned parent-side
// data (the §6.3 structural argument for child-centricity), so it is
// child-centric whatever its Centricity.
func (p Policy) HonorsParent() bool {
	return p.Centricity == ParentCentric && !p.Validate
}

// DefaultPolicy is a mainstream child-centric resolver: BIND-like one-week
// cap, coupled glue refresh, no stickiness.
func DefaultPolicy() Policy {
	return Policy{
		Centricity:            ChildCentric,
		RefreshGlueOnReferral: true,
		TTLCap:                604800,
	}
}
