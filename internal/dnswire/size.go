package dnswire

// Wire-size accounting. The cache's byte-accurate memory bound charges each
// entry its uncompressed wire-format size (RFC 1035 §3.2.1 framing), which
// is the size a resolver would pay to hold the record ready to serve; name
// compression is a per-message transport optimization and deliberately does
// not enter the accounting.

// WireSize returns the uncompressed wire length of the name: one length
// octet per label plus the label bytes, plus the terminating zero octet.
// For a canonical Name ("example.org.") that is len(n)+1; the root is 1.
func (n Name) WireSize() int {
	if n == Root || n == "" {
		return 1
	}
	return len(n) + 1
}

// rrFixedHeader is the fixed RR framing past the owner name: TYPE(2) +
// CLASS(2) + TTL(4) + RDLENGTH(2).
const rrFixedHeader = 10

// WireSize returns the record's uncompressed wire length: owner name,
// fixed header, and RDATA sized exactly as the encoder would emit it with
// compression disabled. Unknown types carry their Raw bytes.
func (r RR) WireSize() int {
	return r.Name.WireSize() + rrFixedHeader + r.rdataWireSize()
}

func (r RR) rdataWireSize() int {
	switch d := r.Data.(type) {
	case Unknown:
		return len(d.Raw)
	case A:
		return 4
	case AAAA:
		return 16
	case NS:
		return d.Host.WireSize()
	case CNAME:
		return d.Target.WireSize()
	case PTR:
		return d.Target.WireSize()
	case MX:
		return 2 + d.Host.WireSize()
	case TXT:
		n := 0
		for _, s := range d.Strings {
			n += 1 + len(s)
		}
		return n
	case SOA:
		return d.MName.WireSize() + d.RName.WireSize() + 20
	case DNSKEY:
		return 4 + len(d.PublicKey)
	case DS:
		return 4 + len(d.Digest)
	case RRSIG:
		return 18 + d.SignerName.WireSize() + len(d.Signature)
	}
	// No RDATA: the OPT pseudo-record is never cached, but its frame (root
	// owner + fixed header, no options) is accounted for completeness.
	return 0
}
