package dnswire

import "testing"

// TestRDataTypesSealed: every RData implementation reports the type code
// its constructor assigns — the sealed-interface invariant encode relies on.
func TestRDataTypesSealed(t *testing.T) {
	rrs := []RR{
		NewA("a.org", 1, "192.0.2.1"),
		NewAAAA("a.org", 1, "2001:db8::1"),
		NewNS("a.org", 1, "ns.a.org"),
		NewCNAME("a.org", 1, "b.org"),
		NewMX("a.org", 1, 5, "mx.a.org"),
		NewTXT("a.org", 1, "x"),
		NewSOA("a.org", 1, "ns.a.org", "h.a.org", 1, 2, 3, 4, 5),
		{Name: NewName("a.org"), Type: TypeDNSKEY, Data: DNSKEY{Flags: 257, Protocol: 3, Algorithm: 8, PublicKey: []byte{1}}},
		{Name: NewName("a.org"), Type: TypeDS, Data: DS{KeyTag: 1, Algorithm: 8, DigestType: 2, Digest: []byte{1}}},
		{Name: NewName("a.org"), Type: TypeRRSIG, Data: RRSIG{TypeCovered: TypeA, SignerName: NewName("a.org")}},
		{Name: NewName("1.2.0.192.in-addr.arpa"), Type: TypePTR, Data: PTR{Target: NewName("a.org")}},
		{Name: Root, Type: TypeOPT, Data: OPT{UDPSize: 4096}},
	}
	for _, rr := range rrs {
		if rr.Data.rType() != rr.Type {
			t.Errorf("%T.rType() = %s, record type %s", rr.Data, rr.Data.rType(), rr.Type)
		}
		if rr.Data.String() == "" {
			t.Errorf("%T has empty presentation form", rr.Data)
		}
	}
}

func TestEnumStringsFull(t *testing.T) {
	cases := map[string]string{
		OpcodeIQuery.String():     "IQUERY",
		OpcodeStatus.String():     "STATUS",
		OpcodeNotify.String():     "NOTIFY",
		OpcodeUpdate.String():     "UPDATE",
		Opcode(9).String():        "OPCODE9",
		RCodeNoError.String():     "NOERROR",
		RCodeFormErr.String():     "FORMERR",
		RCodeServFail.String():    "SERVFAIL",
		RCodeNotImp.String():      "NOTIMP",
		RCodeRefused.String():     "REFUSED",
		ClassCH.String():          "CH",
		ClassANY.String():         "ANY",
		SectionAuthority.String(): "authority",
		Section(9).String():       "section9",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestNewIterativeQuery(t *testing.T) {
	q := NewIterativeQuery(9, NewName("x.org"), TypeNS)
	if q.Header.RD {
		t.Errorf("iterative queries must not set RD")
	}
	if q.Q().Type != TypeNS {
		t.Errorf("question = %+v", q.Q())
	}
}

func TestSectionAccessor(t *testing.T) {
	m := &Message{}
	m.AddAnswer(NewA("a.org", 1, "192.0.2.1"))
	m.AddAuthority(NewNS("a.org", 1, "ns.a.org"))
	m.AddAdditional(NewA("ns.a.org", 1, "192.0.2.2"))
	if len(m.Section(SectionAnswer)) != 1 ||
		len(m.Section(SectionAuthority)) != 1 ||
		len(m.Section(SectionAdditional)) != 1 {
		t.Errorf("Section accessor broken")
	}
}

func TestEqualUnknownTypes(t *testing.T) {
	unknown := func(owner string, raw ...byte) RR {
		return RR{Name: NewName(owner), Type: Type(999), Class: ClassIN, Data: Unknown{T: 999, Raw: raw}}
	}
	a, b, c := unknown("x.org", 1, 2), unknown("x.org", 1, 2), unknown("x.org", 3)
	if !a.Equal(b) || a.Equal(c) {
		t.Errorf("raw-RDATA equality broken")
	}
	if a.Equal(unknown("y.org", 1, 2)) {
		t.Errorf("different owners must not be equal")
	}
}

// TestEqualByValue gives Equal an equal and an unequal pair for every RData
// type. Its verdict must be the one comparing presentation forms gives (what
// Equal did before it compared by value), at no allocation.
func TestEqualByValue(t *testing.T) {
	rr := func(typ Type, d RData) RR {
		return RR{Name: NewName("a.org"), Type: typ, Class: ClassIN, TTL: 60, Data: d}
	}
	a := func(s string) RR { return NewA("a.org", 60, s) }
	txt := func(s ...string) RR { return NewTXT("a.org", 60, s...) }
	key := func(k ...byte) RR {
		return rr(TypeDNSKEY, DNSKEY{Flags: 257, Protocol: 3, Algorithm: 8, PublicKey: k})
	}
	ds := func(tag uint16, d ...byte) RR {
		return rr(TypeDS, DS{KeyTag: tag, Algorithm: 8, DigestType: 2, Digest: d})
	}
	sig := func(ttl uint32, s ...byte) RR {
		return rr(TypeRRSIG, RRSIG{TypeCovered: TypeA, Algorithm: 8, Labels: 2, OriginalTTL: ttl, SignerName: NewName("a.org"), Signature: s})
	}
	unknown := func(raw ...byte) RR { return rr(Type(999), Unknown{T: 999, Raw: raw}) }
	pairs := [][2]RR{
		{a("192.0.2.1"), a("192.0.2.1")}, {a("192.0.2.1"), a("192.0.2.2")},
		{NewAAAA("a.org", 1, "2001:db8::1"), NewAAAA("a.org", 2, "2001:db8::1")},
		{NewAAAA("a.org", 1, "2001:db8::1"), NewAAAA("a.org", 1, "2001:db8::2")},
		{NewNS("a.org", 1, "ns1.a.org"), NewNS("a.org", 1, "ns1.a.org")},
		{NewNS("a.org", 1, "ns1.a.org"), NewNS("a.org", 1, "ns2.a.org")},
		{NewCNAME("a.org", 1, "b.org"), NewCNAME("a.org", 1, "b.org")},
		{NewCNAME("a.org", 1, "b.org"), NewCNAME("a.org", 1, "c.org")},
		{rr(TypePTR, PTR{Target: NewName("b.org")}), rr(TypePTR, PTR{Target: NewName("b.org")})},
		{rr(TypePTR, PTR{Target: NewName("b.org")}), rr(TypePTR, PTR{Target: NewName("c.org")})},
		{NewMX("a.org", 1, 10, "mx.a.org"), NewMX("a.org", 1, 10, "mx.a.org")},
		{NewMX("a.org", 1, 10, "mx.a.org"), NewMX("a.org", 1, 20, "mx.a.org")},
		{txt("x", "y"), txt("x", "y")}, {txt("x", "y"), txt("x", "z")},
		{txt("xy"), txt("x", "y")}, // split and joined are different RDATA
		{txt(), txt()}, {txt(), txt("")},
		{NewSOA("a.org", 1, "ns.a.org", "h.a.org", 1, 2, 3, 4, 5), NewSOA("a.org", 9, "ns.a.org", "h.a.org", 1, 2, 3, 4, 5)},
		{NewSOA("a.org", 1, "ns.a.org", "h.a.org", 1, 2, 3, 4, 5), NewSOA("a.org", 1, "ns.a.org", "h.a.org", 2, 2, 3, 4, 5)},
		{key(1, 2), key(1, 2)}, {key(1, 2), key(1, 3)}, {key(), key()},
		{ds(1, 7), ds(1, 7)}, {ds(1, 7), ds(2, 7)}, {ds(1, 7), ds(1, 8)},
		{sig(60, 9), sig(60, 9)}, {sig(60, 9), sig(61, 9)}, {sig(60, 9), sig(60, 8)},
		{rr(TypeOPT, OPT{UDPSize: 4096}), rr(TypeOPT, OPT{UDPSize: 4096})},
		{rr(TypeOPT, OPT{UDPSize: 4096}), rr(TypeOPT, OPT{UDPSize: 1232})},
		{unknown(1, 2), unknown(1, 2)}, {unknown(1, 2), unknown(1, 2, 3)}, {unknown(), unknown()},
		{rr(TypeA, nil), rr(TypeA, nil)},
		{a("192.0.2.1"), NewA("b.org", 60, "192.0.2.1")},
	}
	presentation := func(r RR) string {
		if r.Data == nil {
			return ""
		}
		return r.Data.String()
	}
	for _, p := range pairs {
		x, y := p[0], p[1]
		want := x.Name == y.Name && x.Type == y.Type && x.Class == y.Class && presentation(x) == presentation(y)
		if got := x.Equal(y); got != want {
			t.Errorf("%v Equal %v = %v, the presentation forms say %v", x, y, got, want)
		}
		if got := y.Equal(x); got != want {
			t.Errorf("%v Equal %v = %v, not symmetric", y, x, got)
		}
		if allocs := testing.AllocsPerRun(20, func() { x.Equal(y) }); allocs != 0 {
			t.Errorf("%v Equal %v costs %.1f allocs, want 0", x, y, allocs)
		}
	}
}

func TestEncodeRejectsInvalidRecords(t *testing.T) {
	// A record carrying a v6 address.
	bad := RR{Name: NewName("x.org"), Type: TypeA, Class: ClassIN,
		Data: A{Addr: NewAAAA("x.org", 1, "2001:db8::1").Data.(AAAA).Addr}}
	m := &Message{}
	m.AddAnswer(bad)
	if _, err := Encode(m); err == nil {
		t.Errorf("A with v6 address must fail to encode")
	}
	// Oversize TXT string.
	long := make([]byte, 300)
	m2 := &Message{}
	m2.AddAnswer(RR{Name: NewName("x.org"), Type: TypeTXT, Class: ClassIN,
		Data: TXT{Strings: []string{string(long)}}})
	if _, err := Encode(m2); err == nil {
		t.Errorf("oversize TXT string must fail")
	}
	// Invalid owner name.
	m3 := &Message{}
	m3.AddAnswer(RR{Name: Name("a..b."), Type: TypeA, Class: ClassIN,
		Data: A{Addr: NewA("x.org", 1, "192.0.2.1").Data.(A).Addr}})
	if _, err := Encode(m3); err == nil {
		t.Errorf("invalid owner must fail")
	}
}

func TestDecodeReservedLabelType(t *testing.T) {
	wire := make([]byte, 12, 16)
	wire[5] = 1 // QDCOUNT
	wire = append(wire, 0x80, 0x01, 'a', 0, 0, 1, 0, 1)
	if _, err := Decode(wire); err == nil {
		t.Errorf("reserved label type 0x80 must fail")
	}
}
