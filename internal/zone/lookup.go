package zone

import (
	"dnsttl/internal/dnswire"
)

// AnswerKind classifies the outcome of a zone lookup.
type AnswerKind uint8

const (
	// Answer: the zone is authoritative for the name and has the type.
	Answer AnswerKind = iota
	// NoData: the name exists but has no records of the queried type.
	NoData
	// NXDomain: the name does not exist in the zone.
	NXDomain
	// Delegation: the name falls under a zone cut; the result carries the
	// NS set and any glue.
	Delegation
	// CNAMEAnswer: the name is an alias; the result carries the CNAME and
	// the caller should chase the target.
	CNAMEAnswer
	// NotInZone: the name is not under this zone's origin at all.
	NotInZone
)

var kindNames = [...]string{"answer", "nodata", "nxdomain", "delegation", "cname", "notinzone"}

func (k AnswerKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// LookupResult is the outcome of Zone.Lookup. Its sets are the zone's stored
// sets, shared with every other reader and immutable by the rule on RRSet:
// read them, copy out of them, never write through them. A later mutation of
// the zone leaves a held result unchanged.
type LookupResult struct {
	Kind AnswerKind
	// Answer holds the matching RRset (or the CNAME for CNAMEAnswer).
	Answer *RRSet
	// Authority holds the delegation NS set (for Delegation) or the SOA
	// (for NoData/NXDomain negative answers, per RFC 2308).
	Authority *RRSet
	// Glue holds address records for in-bailiwick delegation nameservers.
	Glue []dnswire.RR
}

// FillReply writes the result into m, a reply whose header and question
// are already set: AA for data and negative answers, NXDOMAIN or REFUSED
// as the rcode, the SOA as a negative answer's authority, and a
// delegation's NS set and glue as authority and additional. A CNAME is
// added as the answer; chasing its target is the caller's.
func (r LookupResult) FillReply(m *dnswire.Message) {
	switch r.Kind {
	case Answer, CNAMEAnswer:
		m.Header.AA = true
		m.AddAnswer(r.Answer.RRs...)
	case NoData, NXDomain:
		m.Header.AA = true
		if r.Kind == NXDomain {
			m.Header.RCode = dnswire.RCodeNXDomain
		}
		if r.Authority != nil {
			m.AddAuthority(r.Authority.RRs...)
		}
	case Delegation:
		m.AddAuthority(r.Authority.RRs...)
		m.AddAdditional(r.Glue...)
	case NotInZone:
		m.Header.RCode = dnswire.RCodeRefused
	}
}

// Lookup runs the authoritative-side resolution algorithm of RFC 1034
// §4.3.2 against this zone: delegation beats data, CNAME beats other types,
// and negative answers carry the SOA. The whole lookup runs under one read
// lock and clones nothing (see LookupResult).
func (z *Zone) Lookup(name dnswire.Name, t dnswire.Type) LookupResult {
	if !name.IsSubdomainOf(z.Origin) {
		return LookupResult{Kind: NotInZone}
	}
	z.mu.RLock()
	defer z.mu.RUnlock()

	// Zone cut between origin and name? Return a referral. A query *for*
	// the NS set at the cut itself is also a referral (the child zone is
	// authoritative for it, we only hold a copy).
	if cut := z.delegationForLocked(name); cut != nil {
		return LookupResult{
			Kind:      Delegation,
			Authority: cut,
			Glue:      z.glueForLocked(cut),
		}
	}

	if head := z.sets[name]; head != nil {
		if set := setOfType(head, t); set != nil {
			return LookupResult{Kind: Answer, Answer: set}
		}
		// CNAME matches any type except its own (and except at names that
		// actually hold the queried type, handled above).
		if cname := setOfType(head, dnswire.TypeCNAME); cname != nil && t != dnswire.TypeCNAME {
			return LookupResult{Kind: CNAMEAnswer, Answer: cname}
		}
		return LookupResult{Kind: NoData, Authority: z.soaLocked()}
	}

	// Wildcard match (RFC 1034 §4.3.3): the closest-encloser's "*" child.
	if res, ok := z.wildcardLookupLocked(name, t); ok {
		return res
	}

	if z.ancestors[name] > 0 {
		// Not an owner, but owners sit below it: an empty non-terminal,
		// NODATA rather than NXDOMAIN.
		return LookupResult{Kind: NoData, Authority: z.soaLocked()}
	}
	return LookupResult{Kind: NXDomain, Authority: z.soaLocked()}
}

func (z *Zone) wildcardLookupLocked(name dnswire.Name, t dnswire.Type) (LookupResult, bool) {
	// The probe key n.Child("*") is built in a buffer: indexing the map by
	// converted bytes allocates nothing, as Child would per NXDOMAIN label.
	var buf [256]byte
	key := append(buf[:0], "*."...)
	for n := name.Parent(); ; n = n.Parent() {
		if !n.IsSubdomainOf(z.Origin) && n != z.Origin {
			break
		}
		key = key[:2]
		if !n.IsRoot() {
			key = append(key, n...)
		}
		if set := setOfType(z.sets[dnswire.Name(key)], t); set != nil {
			// Synthesize the answer at the query name, in a copy.
			syn := set.Clone()
			syn.Name = name
			for i := range syn.RRs {
				syn.RRs[i].Name = name
			}
			return LookupResult{Kind: Answer, Answer: syn}, true
		}
		if n == z.Origin || n.IsRoot() {
			break
		}
	}
	return LookupResult{}, false
}

// glueForLocked collects A/AAAA records present in the zone for the
// delegation's nameservers. Only in-bailiwick glue (hosts under the
// delegated name or elsewhere within this zone) can exist here by
// construction.
func (z *Zone) glueForLocked(cut *RRSet) []dnswire.RR {
	var glue []dnswire.RR
	for _, rr := range cut.RRs {
		ns, ok := rr.Data.(dnswire.NS)
		if !ok {
			continue
		}
		for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
			if set := z.lookupSetLocked(ns.Host, t); set != nil {
				glue = append(glue, set.RRs...)
			}
		}
	}
	return glue
}

// soaLocked returns the stored apex SOA set, the authority of a negative
// answer, under z.mu.
func (z *Zone) soaLocked() *RRSet {
	return z.lookupSetLocked(z.Origin, dnswire.TypeSOA)
}
