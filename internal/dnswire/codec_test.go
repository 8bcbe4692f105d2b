package dnswire

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	wire, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestRoundTripQuery(t *testing.T) {
	m := NewQuery(0x1234, NewName("www.example.org"), TypeA)
	got := roundTrip(t, m)
	if got.Header.ID != 0x1234 || !got.Header.RD || got.Header.QR {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	if q := got.Q(); q.Name != NewName("www.example.org") || q.Type != TypeA || q.Class != ClassIN {
		t.Errorf("question mismatch: %+v", q)
	}
}

func TestRoundTripAllRRTypes(t *testing.T) {
	m := NewQuery(7, NewName("example.org"), TypeANY)
	resp := m.Reply()
	resp.Header.AA = true
	resp.Header.RA = true
	resp.AddAnswer(
		NewA("example.org", 3600, "192.0.2.1"),
		NewAAAA("example.org", 7200, "2001:db8::1"),
		NewNS("example.org", 172800, "ns1.example.org"),
		NewCNAME("www.example.org", 300, "example.org"),
		NewMX("example.org", 900, 10, "mail.example.org"),
		NewTXT("example.org", 60, "v=spf1 -all", "second string"),
		NewSOA("example.org", 86400, "ns1.example.org", "hostmaster.example.org", 2019021301, 7200, 3600, 1209600, 3600),
		RR{Name: NewName("example.org"), Type: TypeDNSKEY, Class: ClassIN, TTL: 3600,
			Data: DNSKEY{Flags: 257, Protocol: 3, Algorithm: 8, PublicKey: []byte{1, 2, 3, 4}}},
		RR{Name: NewName("example.org"), Type: TypeDS, Class: ClassIN, TTL: 3600,
			Data: DS{KeyTag: 12345, Algorithm: 8, DigestType: 2, Digest: []byte{0xde, 0xad}}},
		RR{Name: NewName("example.org"), Type: TypeRRSIG, Class: ClassIN, TTL: 3600,
			Data: RRSIG{TypeCovered: TypeA, Algorithm: 8, Labels: 2, OriginalTTL: 3600,
				Expiration: 1560000000, Inception: 1550000000, KeyTag: 12345,
				SignerName: NewName("example.org"), Signature: []byte{9, 9, 9}}},
		RR{Name: NewName("1.2.0.192.in-addr.arpa"), Type: TypePTR, Class: ClassIN, TTL: 60,
			Data: PTR{Target: NewName("example.org")}},
	)
	got := roundTrip(t, resp)
	if len(got.Answer) != len(resp.Answer) {
		t.Fatalf("answer count = %d, want %d", len(got.Answer), len(resp.Answer))
	}
	for i := range resp.Answer {
		w, g := resp.Answer[i], got.Answer[i]
		if !g.Equal(w) || g.TTL != w.TTL {
			t.Errorf("record %d: got %s, want %s", i, g, w)
		}
	}
	if !got.Header.AA {
		t.Errorf("AA flag lost in round trip")
	}
}

func TestRoundTripUnknownType(t *testing.T) {
	m := &Message{Header: Header{ID: 1, QR: true}}
	m.AddAnswer(RR{Name: NewName("x.org"), Type: Type(999), Class: ClassIN, TTL: 5, Data: Unknown{T: 999, Raw: []byte{1, 2, 3}}})
	got := roundTrip(t, m)
	if u, ok := got.Answer[0].Data.(Unknown); got.Answer[0].Type != Type(999) || !ok || u.T != 999 || !bytes.Equal(u.Raw, []byte{1, 2, 3}) {
		t.Errorf("unknown type did not round trip: %+v", got.Answer[0])
	}
}

func TestNameCompressionApplied(t *testing.T) {
	m := &Message{Header: Header{QR: true}}
	m.Question = []Question{{Name: NewName("a.very.long.example.org"), Type: TypeNS, Class: ClassIN}}
	for i := 0; i < 10; i++ {
		m.AddAnswer(NewNS("a.very.long.example.org", 3600, "ns1.a.very.long.example.org"))
	}
	wire, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// With compression each repeated owner name costs 2 bytes, so the
	// message must be far smaller than the uncompressed form.
	uncompressed := 12 + 25*2 + 10*(25+10+2+27)
	if len(wire) >= uncompressed/2 {
		t.Errorf("compression ineffective: %d bytes", len(wire))
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Answer[9].Name != NewName("a.very.long.example.org") {
		t.Errorf("compressed name decode: %q", got.Answer[9].Name)
	}
	if got.Answer[9].Data.(NS).Host != NewName("ns1.a.very.long.example.org") {
		t.Errorf("compressed NS host decode: %q", got.Answer[9].Data.(NS).Host)
	}
}

func TestDecodeRejectsPointerLoop(t *testing.T) {
	// Header + a name that points to itself at offset 12.
	wire := make([]byte, 12, 16)
	wire[5] = 1 // QDCOUNT=1
	wire = append(wire, 0xC0, 12, 0, 1, 0, 1)
	if _, err := Decode(wire); err == nil {
		t.Fatal("self-pointing name must fail to decode")
	}
}

func TestDecodeRejectsShortMessages(t *testing.T) {
	m := NewQuery(3, NewName("example.org"), TypeA)
	wire, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(wire); i++ {
		if _, err := Decode(wire[:i]); err == nil {
			t.Errorf("truncated message of %d bytes decoded without error", i)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	m := NewQuery(3, NewName("example.org"), TypeA)
	wire, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(wire, 0xFF)); err != ErrTrailingGarbage {
		t.Errorf("got %v, want ErrTrailingGarbage", err)
	}
}

func TestEncodeWithLimitTruncates(t *testing.T) {
	m := NewQuery(9, NewName("example.org"), TypeTXT)
	resp := m.Reply()
	for i := 0; i < 50; i++ {
		resp.AddAnswer(NewTXT("example.org", 60, string(bytes.Repeat([]byte{'x'}, 200))))
	}
	wire, err := EncodeWithLimit(resp, MaxUDPSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) > MaxUDPSize {
		t.Fatalf("truncated message is %d bytes", len(wire))
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Header.TC {
		t.Errorf("TC flag not set on truncated message")
	}
	if len(got.Answer) != 0 {
		t.Errorf("truncated message still has %d answers", len(got.Answer))
	}
	// Under the limit: untouched.
	ok, err := EncodeWithLimit(NewQuery(1, NewName("a.b"), TypeA), MaxUDPSize)
	if err != nil {
		t.Fatal(err)
	}
	if m2, _ := Decode(ok); m2.Header.TC {
		t.Errorf("small message should not be truncated")
	}
}

func TestOPTRoundTrip(t *testing.T) {
	m := NewQuery(11, NewName("example.org"), TypeA)
	m.AddAdditional(RR{Name: Root, Type: TypeOPT, Data: OPT{UDPSize: 4096, DO: true}})
	got := roundTrip(t, m)
	if len(got.Additional) != 1 {
		t.Fatalf("additional count = %d", len(got.Additional))
	}
	opt, ok := got.Additional[0].Data.(OPT)
	if !ok {
		t.Fatalf("OPT data lost: %+v", got.Additional[0])
	}
	if opt.UDPSize != 4096 || !opt.DO {
		t.Errorf("OPT mismatch: %+v", opt)
	}
}

func TestExtendedRCodeFolded(t *testing.T) {
	m := &Message{Header: Header{ID: 1, QR: true, RCode: RCode(6)}} // low 4 bits
	m.AddAdditional(RR{Name: Root, Type: TypeOPT, Data: OPT{UDPSize: 4096, ExtendedRCode: 1}})
	got := roundTrip(t, m)
	if got.Header.RCode != RCode(1<<4|6) {
		t.Errorf("extended rcode = %d, want %d", got.Header.RCode, 1<<4|6)
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	for i := 0; i < 1<<7; i++ {
		h := Header{
			ID: uint16(i * 31), QR: i&1 != 0, AA: i&2 != 0, TC: i&4 != 0,
			RD: i&8 != 0, RA: i&16 != 0, AD: i&32 != 0, CD: i&64 != 0,
			Opcode: Opcode(i % 3), RCode: RCode(i % 6),
		}
		m := &Message{Header: h}
		got := roundTrip(t, m)
		if got.Header != h {
			t.Fatalf("header round trip: got %+v, want %+v", got.Header, h)
		}
	}
}

// randomName generates a valid random name for property tests.
func randomName(r *rand.Rand) Name {
	nLabels := 1 + r.Intn(4)
	labels := make([]byte, 0, 32)
	for i := 0; i < nLabels; i++ {
		if i > 0 {
			labels = append(labels, '.')
		}
		n := 1 + r.Intn(12)
		for j := 0; j < n; j++ {
			labels = append(labels, byte('a'+r.Intn(26)))
		}
	}
	return NewName(string(labels))
}

func randomRR(r *rand.Rand) RR {
	name := randomName(r)
	ttl := uint32(r.Intn(172801))
	switch r.Intn(7) {
	case 0:
		return RR{Name: name, Type: TypeA, Class: ClassIN, TTL: ttl,
			Data: A{Addr: netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})}}
	case 1:
		var b [16]byte
		r.Read(b[:])
		b[0] = 0x20 // avoid the 4-in-6 mapped range
		return RR{Name: name, Type: TypeAAAA, Class: ClassIN, TTL: ttl, Data: AAAA{Addr: netip.AddrFrom16(b)}}
	case 2:
		return RR{Name: name, Type: TypeNS, Class: ClassIN, TTL: ttl, Data: NS{Host: randomName(r)}}
	case 3:
		return RR{Name: name, Type: TypeCNAME, Class: ClassIN, TTL: ttl, Data: CNAME{Target: randomName(r)}}
	case 4:
		return RR{Name: name, Type: TypeMX, Class: ClassIN, TTL: ttl,
			Data: MX{Preference: uint16(r.Intn(100)), Host: randomName(r)}}
	case 5:
		return RR{Name: name, Type: TypeTXT, Class: ClassIN, TTL: ttl, Data: TXT{Strings: []string{"s"}}}
	default:
		return RR{Name: name, Type: TypeSOA, Class: ClassIN, TTL: ttl, Data: SOA{
			MName: randomName(r), RName: randomName(r),
			Serial: r.Uint32(), Refresh: 7200, Retry: 3600, Expire: 86400, Minimum: uint32(r.Intn(3600)),
		}}
	}
}

// TestQuickRoundTrip is the codec's core property: Decode(Encode(m)) == m for
// arbitrary well-formed messages.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Message{Header: Header{ID: uint16(r.Intn(1 << 16)), QR: true, AA: r.Intn(2) == 0, RA: true}}
		m.Question = []Question{{Name: randomName(r), Type: TypeA, Class: ClassIN}}
		for i := 0; i < r.Intn(8); i++ {
			m.AddAnswer(randomRR(r))
		}
		for i := 0; i < r.Intn(4); i++ {
			m.AddAuthority(randomRR(r))
		}
		for i := 0; i < r.Intn(4); i++ {
			m.AddAdditional(randomRR(r))
		}
		wire, err := Encode(m)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeNeverPanics fuzzes the decoder with random bytes: it must
// return an error or a message, never panic or loop.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data) // must terminate without panicking
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeMutatedWire flips bytes in valid messages; the decoder must
// stay robust.
func TestQuickDecodeMutatedWire(t *testing.T) {
	base := NewQuery(77, NewName("www.example.org"), TypeAAAA)
	resp := base.Reply()
	resp.AddAnswer(NewAAAA("www.example.org", 60, "2001:db8::7"))
	resp.AddAuthority(NewNS("example.org", 3600, "ns1.example.org"))
	resp.AddAdditional(NewA("ns1.example.org", 7200, "192.0.2.53"))
	wire, err := Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint16, val byte) bool {
		mut := append([]byte(nil), wire...)
		mut[int(pos)%len(mut)] = val
		_, _ = Decode(mut)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMessageHelpers(t *testing.T) {
	m := NewQuery(5, NewName("x.org"), TypeNS)
	resp := m.Reply()
	if resp.Header.ID != 5 || !resp.Header.QR || !resp.Header.RD {
		t.Errorf("Reply header: %+v", resp.Header)
	}
	resp.AddAuthority(NewNS("x.org", 3600, "ns1.x.org"))
	if !resp.IsReferral() {
		t.Errorf("NS-only authority should be a referral")
	}
	resp.AddAnswer(NewNS("x.org", 3600, "ns1.x.org"))
	if resp.IsReferral() {
		t.Errorf("message with answers is not a referral")
	}
	if got := resp.AnswersFor(NewName("x.org"), TypeNS); len(got) != 1 {
		t.Errorf("AnswersFor = %v", got)
	}
	if got := resp.AnswersFor(NewName("x.org"), TypeA); len(got) != 0 {
		t.Errorf("AnswersFor wrong type = %v", got)
	}
	if (&Message{}).Q() != (Question{}) {
		t.Errorf("empty Q() should be zero")
	}
	if len(resp.Section(SectionAuthority)) != 1 {
		t.Errorf("Section(authority) wrong")
	}
}

func TestStringRendering(t *testing.T) {
	m := NewQuery(5, NewName("x.org"), TypeNS)
	resp := m.Reply()
	resp.Header.AA = true
	resp.AddAnswer(NewNS("x.org", 3600, "ns1.x.org"))
	s := resp.String()
	for _, want := range []string{"NOERROR", "aa", "ANSWER: 1", "ns1.x.org."} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestTypeAndClassStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeDNSKEY.String() != "DNSKEY" {
		t.Errorf("type names wrong")
	}
	if Type(1234).String() != "TYPE1234" {
		t.Errorf("unknown type name: %s", Type(1234))
	}
	if ClassIN.String() != "IN" || Class(9).String() != "CLASS9" {
		t.Errorf("class names wrong")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(15).String() != "RCODE15" {
		t.Errorf("rcode names wrong")
	}
	if OpcodeQuery.String() != "QUERY" {
		t.Errorf("opcode names wrong")
	}
	if SectionAnswer.String() != "answer" || SectionAdditional.String() != "additional" {
		t.Errorf("section names wrong")
	}
	tp, err := ParseType("AAAA")
	if err != nil || tp != TypeAAAA {
		t.Errorf("ParseType(AAAA) = %v, %v", tp, err)
	}
	if _, err := ParseType("NOPE"); err == nil {
		t.Errorf("ParseType should reject unknown names")
	}
}

func TestRREqualIgnoresTTL(t *testing.T) {
	a := NewA("x.org", 100, "192.0.2.1")
	b := NewA("x.org", 999, "192.0.2.1")
	if !a.Equal(b) {
		t.Errorf("Equal must ignore TTL")
	}
	c := NewA("x.org", 100, "192.0.2.2")
	if a.Equal(c) {
		t.Errorf("different RDATA must not be Equal")
	}
}

// TestDecodedNeverAliasesWire: a decoded message copies every byte it keeps
// — names, TXT strings, the DNSKEY/DS tails, RRSIG signatures, Unknown
// RDATA — so its wire may be reused the moment Decode returns, as a
// resolver reuses its reply buffer. One message carries every RData type;
// its wire is overwritten after the decode, and the message must still equal
// one decoded from a copy taken before.
func TestDecodedNeverAliasesWire(t *testing.T) {
	resp := NewQuery(7, NewName("example.org"), TypeANY).Reply()
	resp.AddAnswer(
		NewA("example.org", 3600, "192.0.2.1"),
		NewAAAA("example.org", 7200, "2001:db8::1"),
		NewNS("example.org", 172800, "ns1.example.org"),
		NewCNAME("www.example.org", 300, "example.org"),
		NewMX("example.org", 900, 10, "mail.example.org"),
		NewTXT("example.org", 60, "v=spf1 -all", "second string"),
		NewSOA("example.org", 86400, "ns1.example.org", "hostmaster.example.org", 1, 2, 3, 4, 5),
		RR{Name: NewName("example.org"), Type: TypeDNSKEY, Class: ClassIN, TTL: 3600,
			Data: DNSKEY{Flags: 257, Protocol: 3, Algorithm: 8, PublicKey: []byte{1, 2, 3, 4}}},
		RR{Name: NewName("example.org"), Type: TypeDS, Class: ClassIN, TTL: 3600,
			Data: DS{KeyTag: 12345, Algorithm: 8, DigestType: 2, Digest: []byte{0xde, 0xad}}},
		RR{Name: NewName("example.org"), Type: TypeRRSIG, Class: ClassIN, TTL: 3600,
			Data: RRSIG{TypeCovered: TypeA, Algorithm: 8, Labels: 2, OriginalTTL: 3600,
				KeyTag: 12345, SignerName: NewName("example.org"), Signature: []byte{9, 9, 9}}},
		RR{Name: NewName("1.2.0.192.in-addr.arpa"), Type: TypePTR, Class: ClassIN, TTL: 60,
			Data: PTR{Target: NewName("example.org")}},
		RR{Name: NewName("example.org"), Type: Type(999), Class: ClassIN, TTL: 5, Data: Unknown{T: 999, Raw: []byte{7, 8}}},
	)
	resp.AddAdditional(RR{Name: Root, Type: TypeOPT, Data: OPT{UDPSize: 1232, DO: true}})
	wire, err := Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(bytes.Clone(wire))
	if err != nil {
		t.Fatal(err)
	}
	got := new(Message)
	if err := NewDecoder().Decode(wire, got); err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		wire[i] = 0xA5
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("overwriting the wire changed the decoded message:\n%s\nwant\n%s", got, want)
	}
	seen := map[reflect.Type]bool{}
	for _, rr := range append(got.Answer, got.Additional...) {
		seen[reflect.TypeOf(rr.Data)] = true
	}
	for _, rd := range []RData{A{}, AAAA{}, NS{}, CNAME{}, PTR{}, MX{}, TXT{}, SOA{}, DNSKEY{}, DS{}, RRSIG{}, OPT{}, Unknown{}} {
		if !seen[reflect.TypeOf(rd)] {
			t.Errorf("the message carries no %T", rd)
		}
	}
}
