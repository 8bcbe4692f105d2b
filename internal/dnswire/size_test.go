package dnswire

import "testing"

func TestNameWireSize(t *testing.T) {
	cases := []struct {
		name Name
		want int
	}{
		{Root, 1},
		{Name(""), 1},
		{NewName("org"), 5},              // 3org0
		{NewName("example.org"), 13},     // 7example3org0
		{NewName("www.example.org"), 17}, // 3www7example3org0
	}
	for _, c := range cases {
		if got := c.name.WireSize(); got != c.want {
			t.Errorf("WireSize(%q) = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestRRWireSizeMatchesEncoder cross-checks WireSize against the real
// encoder on messages built so that no suffix repeats — compression never
// fires, so the encoded RR length must equal the accounted size exactly.
func TestRRWireSizeMatchesEncoder(t *testing.T) {
	const header = 12
	rrs := []RR{
		NewA("a.xa", 300, "192.0.2.1"),
		NewAAAA("b.xb", 300, "2001:db8::1"),
		NewTXT("c.xc", 60, "hello", "world"),
		{Name: NewName("d.xd"), Type: Type(0xFF00), Class: ClassIN, TTL: 5, Data: Unknown{T: 0xFF00, Raw: []byte{1, 2, 3}}},
	}
	for _, rr := range rrs {
		m := &Message{Header: Header{QR: true}}
		m.AddAnswer(rr)
		wire, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %s: %v", rr.Name, err)
		}
		if got, want := rr.WireSize(), len(wire)-header; got != want {
			t.Errorf("WireSize(%s %s) = %d, encoder emitted %d", rr.Name, rr.Type, got, want)
		}
	}
}

// TestRRWireSizeNameRData pins the arithmetic for the name-bearing RDATA
// types, where compression in a real message would hide the true size.
func TestRRWireSizeNameRData(t *testing.T) {
	ns := NewNS("example.org", 3600, "ns1.example.org")
	// owner 13 + header 10 + rdata 17
	if got := ns.WireSize(); got != 40 {
		t.Errorf("NS WireSize = %d, want 40", got)
	}
	soa := NewSOA("example.org", 3600, "ns1.example.org", "admin.example.org", 1, 2, 3, 4, 5)
	// owner 13 + header 10 + mname 17 + rname 19 + 20
	if got := soa.WireSize(); got != 79 {
		t.Errorf("SOA WireSize = %d, want 79", got)
	}
	mx := NewMX("example.org", 3600, 10, "mail.example.org")
	// owner 13 + header 10 + pref 2 + host 18
	if got := mx.WireSize(); got != 43 {
		t.Errorf("MX WireSize = %d, want 43", got)
	}
}
