package dnswire

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"strings"
)

// RR is a single resource record. A record whose type this module does not
// model carries its RDATA as Unknown and round-trips through the codec as
// opaque bytes.
type RR struct {
	Name  Name
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// RData is the typed representation of an RR's RDATA.
type RData interface {
	// rType returns the RR type this data belongs to.
	rType() Type
	// String returns the presentation form of the RDATA.
	String() string
}

// Equal reports whether two records carry the same name, type, class and
// RDATA. TTL is deliberately excluded: RFC 2181 §5 defines RRset membership
// ignoring TTL, which is exactly the distinction this module studies. RDATA
// compares by value, allocating nothing.
func (r RR) Equal(o RR) bool {
	return r.Name == o.Name && r.Type == o.Type && r.Class == o.Class && rdataEqual(r.Data, o.Data)
}

func rdataEqual(a, b RData) bool {
	switch x := a.(type) {
	case TXT:
		y, ok := b.(TXT)
		return ok && slices.Equal(x.Strings, y.Strings)
	case DNSKEY:
		y, ok := b.(DNSKEY)
		return ok && x.Flags == y.Flags && x.Protocol == y.Protocol && x.Algorithm == y.Algorithm && bytes.Equal(x.PublicKey, y.PublicKey)
	case DS:
		y, ok := b.(DS)
		return ok && x.KeyTag == y.KeyTag && x.Algorithm == y.Algorithm && x.DigestType == y.DigestType && bytes.Equal(x.Digest, y.Digest)
	case RRSIG:
		y, ok := b.(RRSIG)
		return ok && x.TypeCovered == y.TypeCovered && x.Algorithm == y.Algorithm && x.Labels == y.Labels &&
			x.OriginalTTL == y.OriginalTTL && x.Expiration == y.Expiration && x.Inception == y.Inception &&
			x.KeyTag == y.KeyTag && x.SignerName == y.SignerName && bytes.Equal(x.Signature, y.Signature)
	case Unknown:
		y, ok := b.(Unknown)
		return ok && x.T == y.T && bytes.Equal(x.Raw, y.Raw)
	}
	// Every other RData (and nil) is a comparable value.
	return a == b
}

// String renders the record in zone-file presentation form.
func (r RR) String() string {
	var data string
	if r.Data != nil {
		data = r.Data.String()
	}
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s", r.Name, r.TTL, r.Class, r.Type, data)
}

// A is an IPv4 address record (RFC 1035 §3.4.1).
type A struct{ Addr netip.Addr }

func (A) rType() Type      { return TypeA }
func (a A) String() string { return a.Addr.String() }

// AAAA is an IPv6 address record (RFC 3596).
type AAAA struct{ Addr netip.Addr }

func (AAAA) rType() Type      { return TypeAAAA }
func (a AAAA) String() string { return a.Addr.String() }

// NS names an authoritative server for the owner (RFC 1035 §3.3.11).
type NS struct{ Host Name }

func (NS) rType() Type      { return TypeNS }
func (n NS) String() string { return n.Host.String() }

// CNAME is a canonical-name alias (RFC 1035 §3.3.1).
type CNAME struct{ Target Name }

func (CNAME) rType() Type      { return TypeCNAME }
func (c CNAME) String() string { return c.Target.String() }

// PTR is a pointer record (RFC 1035 §3.3.12).
type PTR struct{ Target Name }

func (PTR) rType() Type      { return TypePTR }
func (p PTR) String() string { return p.Target.String() }

// MX is a mail-exchange record (RFC 1035 §3.3.9).
type MX struct {
	Preference uint16
	Host       Name
}

func (MX) rType() Type { return TypeMX }
func (m MX) String() string {
	return fmt.Sprintf("%d %s", m.Preference, m.Host)
}

// TXT is descriptive text (RFC 1035 §3.3.14). Each element is one
// character-string of at most 255 bytes.
type TXT struct{ Strings []string }

func (TXT) rType() Type { return TypeTXT }
func (t TXT) String() string {
	quoted := make([]string, len(t.Strings))
	for i, s := range t.Strings {
		quoted[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(quoted, " ")
}

// SOA marks the start of a zone of authority (RFC 1035 §3.3.13). Minimum is
// the negative-caching TTL per RFC 2308.
type SOA struct {
	MName   Name
	RName   Name
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

func (SOA) rType() Type { return TypeSOA }
func (s SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		s.MName, s.RName, s.Serial, s.Refresh, s.Retry, s.Expire, s.Minimum)
}

// DNSKEY is a DNSSEC public key (RFC 4034 §2). The key material is opaque
// here; what matters to the paper (§5.1) is its TTL.
type DNSKEY struct {
	Flags     uint16
	Protocol  uint8
	Algorithm uint8
	PublicKey []byte
}

func (DNSKEY) rType() Type { return TypeDNSKEY }
func (k DNSKEY) String() string {
	return fmt.Sprintf("%d %d %d %x", k.Flags, k.Protocol, k.Algorithm, k.PublicKey)
}

// DS is a delegation-signer digest (RFC 4034 §5).
type DS struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

func (DS) rType() Type { return TypeDS }
func (d DS) String() string {
	return fmt.Sprintf("%d %d %d %x", d.KeyTag, d.Algorithm, d.DigestType, d.Digest)
}

// RRSIG covers an RRset with a signature (RFC 4034 §3). DNSSEC requires the
// covered RRset's TTL to match the RRSIG OriginalTTL, which is why validating
// resolvers must be child-centric (§2 of the paper).
type RRSIG struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OriginalTTL uint32
	Expiration  uint32
	Inception   uint32
	KeyTag      uint16
	SignerName  Name
	Signature   []byte
}

func (RRSIG) rType() Type { return TypeRRSIG }
func (s RRSIG) String() string {
	return fmt.Sprintf("%s %d %d %d %d %d %d %s %x",
		s.TypeCovered, s.Algorithm, s.Labels, s.OriginalTTL,
		s.Expiration, s.Inception, s.KeyTag, s.SignerName, s.Signature)
}

// OPT is the EDNS0 pseudo-record (RFC 6891). Its "TTL" field carries the
// extended RCode and flags; UDPSize rides in the class field.
type OPT struct {
	UDPSize       uint16
	ExtendedRCode uint8
	Version       uint8
	DO            bool
}

func (OPT) rType() Type { return TypeOPT }
func (o OPT) String() string {
	return fmt.Sprintf("udp=%d ercode=%d version=%d do=%v", o.UDPSize, o.ExtendedRCode, o.Version, o.DO)
}

// Unknown is the undecoded RDATA of a type this module does not model
// (RFC 3597): T is the record's type, Raw its RDATA bytes.
type Unknown struct {
	T   Type
	Raw []byte
}

func (u Unknown) rType() Type    { return u.T }
func (u Unknown) String() string { return fmt.Sprintf("%x", u.Raw) }

// NewA builds an A record. It panics if addr is not IPv4; use it for
// literals and tests.
func NewA(name string, ttl uint32, addr string) RR {
	a := netip.MustParseAddr(addr)
	if !a.Is4() {
		panic("dnswire: NewA requires an IPv4 address")
	}
	return RR{Name: MustName(name), Type: TypeA, Class: ClassIN, TTL: ttl, Data: A{Addr: a}}
}

// NewAAAA builds an AAAA record from an IPv6 literal.
func NewAAAA(name string, ttl uint32, addr string) RR {
	a := netip.MustParseAddr(addr)
	if !a.Is6() || a.Is4In6() {
		panic("dnswire: NewAAAA requires an IPv6 address")
	}
	return RR{Name: MustName(name), Type: TypeAAAA, Class: ClassIN, TTL: ttl, Data: AAAA{Addr: a}}
}

// NewNS builds an NS record.
func NewNS(name string, ttl uint32, host string) RR {
	return RR{Name: MustName(name), Type: TypeNS, Class: ClassIN, TTL: ttl, Data: NS{Host: MustName(host)}}
}

// NewCNAME builds a CNAME record.
func NewCNAME(name string, ttl uint32, target string) RR {
	return RR{Name: MustName(name), Type: TypeCNAME, Class: ClassIN, TTL: ttl, Data: CNAME{Target: MustName(target)}}
}

// NewMX builds an MX record.
func NewMX(name string, ttl uint32, pref uint16, host string) RR {
	return RR{Name: MustName(name), Type: TypeMX, Class: ClassIN, TTL: ttl, Data: MX{Preference: pref, Host: MustName(host)}}
}

// NewTXT builds a TXT record.
func NewTXT(name string, ttl uint32, strs ...string) RR {
	return RR{Name: MustName(name), Type: TypeTXT, Class: ClassIN, TTL: ttl, Data: TXT{Strings: strs}}
}

// NewSOA builds an SOA record.
func NewSOA(name string, ttl uint32, mname, rname string, serial, refresh, retry, expire, minimum uint32) RR {
	return RR{Name: MustName(name), Type: TypeSOA, Class: ClassIN, TTL: ttl, Data: SOA{
		MName: MustName(mname), RName: MustName(rname),
		Serial: serial, Refresh: refresh, Retry: retry, Expire: expire, Minimum: minimum,
	}}
}
