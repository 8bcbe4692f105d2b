package zone

import "dnsttl/internal/dnswire"

// BailiwickClass classifies how a domain's nameserver set relates to the
// domain itself, the distinction at the heart of §4 and Table 9 of the paper.
type BailiwickClass uint8

const (
	// BailiwickInOnly: every NS host is under the domain (needs glue).
	BailiwickInOnly BailiwickClass = iota
	// BailiwickOutOnly: every NS host is outside the domain.
	BailiwickOutOnly
	// BailiwickMixed: some in, some out.
	BailiwickMixed
	// BailiwickNone: the domain has no NS hosts to classify.
	BailiwickNone
)

func (b BailiwickClass) String() string {
	switch b {
	case BailiwickInOnly:
		return "in-only"
	case BailiwickOutOnly:
		return "out-only"
	case BailiwickMixed:
		return "mixed"
	case BailiwickNone:
		return "none"
	}
	return "unknown"
}

// InBailiwick reports whether host is in bailiwick of domain: at or under it
// (RFC 8499). ns.example.org is in bailiwick of example.org;
// ns.example.com is not.
func InBailiwick(host, domain dnswire.Name) bool {
	return host.IsSubdomainOf(domain)
}

// ClassifyBailiwick classifies a domain's nameserver host set.
func ClassifyBailiwick(domain dnswire.Name, hosts []dnswire.Name) BailiwickClass {
	if len(hosts) == 0 {
		return BailiwickNone
	}
	in, out := 0, 0
	for _, h := range hosts {
		if InBailiwick(h, domain) {
			in++
		} else {
			out++
		}
	}
	switch {
	case in > 0 && out > 0:
		return BailiwickMixed
	case in > 0:
		return BailiwickInOnly
	default:
		return BailiwickOutOnly
	}
}
