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
	a := RR{Name: NewName("x.org"), Type: Type(999), Class: ClassIN, Raw: []byte{1, 2}}
	b := RR{Name: NewName("x.org"), Type: Type(999), Class: ClassIN, Raw: []byte{1, 2}}
	c := RR{Name: NewName("x.org"), Type: Type(999), Class: ClassIN, Raw: []byte{3}}
	if !a.Equal(b) || a.Equal(c) {
		t.Errorf("raw-RDATA equality broken")
	}
	d := RR{Name: NewName("y.org"), Type: Type(999), Class: ClassIN, Raw: []byte{1, 2}}
	if a.Equal(d) {
		t.Errorf("different owners must not be equal")
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
