package resolver

import (
	"net/netip"
	"time"

	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
)

// bestServers finds the deepest zone enclosing name whose nameserver
// addresses the resolver can produce, and those addresses, which land in
// qs.addrs. It may issue subqueries (charged to res) to resolve
// out-of-bailiwick nameserver names.
func (r *Resolver) bestServers(name dnswire.Name, res *Result, depth int, qs *queryScratch) (dnswire.Name, []netip.Addr) {
	for z := name; ; z = z.Parent() {
		if r.Policy.Sticky {
			r.mu.Lock()
			pinned, ok := r.sticky[z]
			r.mu.Unlock()
			if ok {
				qs.addrs = append(qs.addrs[:0], pinned)
				return z, qs.addrs
			}
		}
		if e, _, ok := r.Cache.Get(z, dnswire.TypeNS); ok && e.Negative == cache.NotNegative {
			if addrs := r.nsAddresses(z, e, res, depth, qs); len(addrs) > 0 {
				return z, addrs
			}
		}
		if z.IsRoot() {
			break
		}
	}
	// Shared, not copied: callers only read it (serverOrder copies before it
	// shuffles or sorts).
	return dnswire.Root, r.RootHints
}

// nsAddresses produces addresses for the NS hosts of zone z, using cached
// addresses first and subqueries for out-of-bailiwick hosts without one. It
// appends them to qs.addrs, reset first, and returns that slice.
func (r *Resolver) nsAddresses(z dnswire.Name, nsSet *cache.Entry, res *Result, depth int, qs *queryScratch) []netip.Addr {
	addrs, unresolved := qs.addrs[:0], qs.hosts[:0]
	for _, rr := range nsSet.RRs {
		ns, ok := rr.Data.(dnswire.NS)
		if !ok {
			continue
		}
		if r.Policy.RevalidateGlue && depth == 0 {
			// Upgrade glue-credibility addresses to authoritative data
			// with an explicit query to the child (§3.4's traffic).
			if e, _, ok := r.Cache.Get(ns.Host, dnswire.TypeA); ok &&
				e.Negative == cache.NotNegative && e.Cred == cache.CredAdditional {
				_, _ = r.subResolve(ns.Host, dnswire.TypeA, res, depth+1)
			}
		}
		if a := r.cachedAddress(ns.Host); a.IsValid() {
			addrs = append(addrs, a)
		} else if !ns.Host.IsSubdomainOf(z) {
			// Out-of-bailiwick host: resolvable independently. An
			// in-bailiwick host without glue is a dead end (resolving it
			// would require the very zone we are trying to enter).
			unresolved = append(unresolved, ns.Host)
		}
	}
	qs.hosts = unresolved
	if len(addrs) == 0 && depth < maxDepth {
		for _, host := range unresolved {
			if _, err := r.subResolve(host, dnswire.TypeA, res, depth+1); err != nil {
				continue
			}
			if a := r.cachedAddress(host); a.IsValid() {
				addrs = append(addrs, a)
			}
		}
	}
	qs.addrs = addrs
	return addrs
}

// cachedAddress returns a fresh cached address for host (A preferred, then
// AAAA), or the zero Addr.
func (r *Resolver) cachedAddress(host dnswire.Name) netip.Addr {
	for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
		e, _, ok := r.Cache.Get(host, t)
		if !ok || e.Negative != cache.NotNegative {
			continue
		}
		for _, rr := range e.RRs {
			switch d := rr.Data.(type) {
			case dnswire.A:
				return d.Addr
			case dnswire.AAAA:
				return d.Addr
			}
		}
	}
	return netip.Addr{}
}

// pinSticky records the first server successfully used for a zone.
func (r *Resolver) pinSticky(z dnswire.Name, server netip.Addr) {
	if !r.Policy.Sticky {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sticky[z]; !ok {
		r.sticky[z] = server
	}
}

// cacheReferral stores a referral's NS set and glue in wire order, returning
// the child zone name the referral delegates to — the owner of the first NS
// set, should a malformed referral carry several.
func (r *Resolver) cacheReferral(resp *dnswire.Message, now time.Time) dnswire.Name {
	var child dnswire.Name
	eachRRSet(resp.Authority, dnswire.TypeNS, func(set []dnswire.RR) {
		if child == "" {
			child = set[0].Name
		}
		r.Cache.Put(cache.Entry{
			Key:    cache.Key{Name: set[0].Name, Type: dnswire.TypeNS},
			RRs:    set,
			TTL:    set[0].TTL,
			Stored: now,
			Cred:   cache.CredAuthorityReferral,
		})
	})
	if child == "" {
		return ""
	}
	for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
		eachRRSet(resp.Additional, t, func(set []dnswire.RR) {
			owner := set[0].Name
			if !r.Policy.RefreshGlueOnReferral {
				// Keep a still-fresh cached address; only fill gaps.
				if _, _, ok := r.Cache.Get(owner, t); ok {
					return
				}
			} else {
				// The common behavior §4.2 measures: a re-fetched
				// referral's glue displaces whatever address was cached,
				// coupling the effective A lifetime to the NS TTL.
				r.Cache.Remove(owner, t)
			}
			r.Cache.Put(cache.Entry{
				Key:    cache.Key{Name: owner, Type: t},
				RRs:    set,
				TTL:    set[0].TTL,
				Stored: now,
				Cred:   cache.CredAdditional,
				GlueOf: child,
			})
		})
	}
	return child
}

// cacheAnswerSections stores every section of a (positive) answer with the
// credibility its section and the AA bit earn it (RFC 2181 §5.4.1). Puts go
// type by type, within a type section by section, within a section in wire
// order — the order fixes which entry a bounded cache evicts first.
func (r *Resolver) cacheAnswerSections(resp *dnswire.Message, now time.Time) {
	ansCred := cache.CredAnswerNonAuth
	authCred := cache.CredAuthorityReferral
	if resp.Header.AA {
		ansCred = cache.CredAnswerAuth
		authCred = cache.CredAuthorityAuth
	}
	sections := [...]struct {
		rrs  []dnswire.RR
		cred cache.Credibility
	}{{resp.Answer, ansCred}, {resp.Authority, authCred}, {resp.Additional, cache.CredAdditional}}
	for _, t := range answerableTypes {
		for _, sec := range sections {
			eachRRSet(sec.rrs, t, func(set []dnswire.RR) {
				r.Cache.Put(cache.Entry{
					Key:    cache.Key{Name: set[0].Name, Type: t},
					RRs:    set,
					TTL:    set[0].TTL,
					Stored: now,
					Cred:   sec.cred,
				})
			})
		}
	}
}

// answerableTypes are the record types this resolver caches from responses.
var answerableTypes = []dnswire.Type{
	dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeCNAME,
	dnswire.TypeMX, dnswire.TypeTXT, dnswire.TypeSOA, dnswire.TypeDNSKEY,
	dnswire.TypePTR, dnswire.TypeDS,
}

// cacheNegative stores an RFC 2308 negative answer; the TTL is the SOA
// minimum bounded by the SOA record's own TTL, or negTTLFallback when
// the response carries no SOA, clamped like any other TTL. It reports the
// TTL stored and whether it was SOA-derived, for the lifecycle trace.
func (r *Resolver) cacheNegative(resp *dnswire.Message, name dnswire.Name, qtype dnswire.Type, kind cache.NegativeKind, now time.Time) (uint32, bool) {
	ttl := negTTLFallback
	fromSOA := false
	for _, rr := range resp.Authority {
		if soa, ok := rr.Data.(dnswire.SOA); ok {
			ttl = soa.Minimum
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
			fromSOA = true
			break
		}
	}
	ttl = r.Policy.ClampTTL(ttl)
	r.Cache.Put(cache.Entry{
		Key:      cache.Key{Name: name, Type: qtype},
		TTL:      ttl,
		Stored:   now,
		Cred:     cache.CredAnswerAuth,
		Negative: kind,
	})
	return ttl, fromSOA
}

// eachRRSet calls fn once for every RRset of type t in rrs — the records of
// that type sharing an owner — in wire order of each owner's first record.
// rrs is a section of a pooled reply: a one-record set is a view of it,
// which cache.Store.Put copies, and a larger set an exact-size slice of its
// own, which Put may keep.
func eachRRSet(rrs []dnswire.RR, t dnswire.Type, fn func(set []dnswire.RR)) {
	for i := range rrs {
		owner := rrs[i].Name
		if rrs[i].Type != t || countRRs(rrs[:i], owner, t) > 0 {
			continue // another type, or emitted at its owner's first record
		}
		set := rrs[i : i+1 : i+1]
		if more := countRRs(rrs[i+1:], owner, t); more > 0 {
			set = make([]dnswire.RR, 0, 1+more)
			for _, rr := range rrs[i:] {
				if rr.Type == t && rr.Name == owner {
					set = append(set, rr)
				}
			}
		}
		fn(set)
	}
}

// countRRs counts the records of (owner, t) in rrs.
func countRRs(rrs []dnswire.RR, owner dnswire.Name, t dnswire.Type) int {
	n := 0
	for i := range rrs {
		if rrs[i].Type == t && rrs[i].Name == owner {
			n++
		}
	}
	return n
}
