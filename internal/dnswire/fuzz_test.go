package dnswire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// carelessSource lends the names it holds, and for any other spelling a
// name that is wrong: the spelling itself when NewName would lower-case it,
// a different name otherwise. The decoder must take a lent name only where
// it is exactly what NewName would build.
type carelessSource map[string]Name

func (s carelessSource) LendName(spelling []byte) (Name, bool) {
	if n, ok := s[string(spelling)]; ok {
		return n, true
	}
	if !bytes.Equal(bytes.ToLower(spelling), spelling) {
		return Name(spelling), true
	}
	return "lent-a-wrong-name.", true
}

// messageNames lists every name m carries: questions, owners, and the names
// inside RDATA.
func messageNames(m *Message) []Name {
	var out []Name
	for _, q := range m.Question {
		out = append(out, q.Name)
	}
	for _, rr := range append(append(append([]RR(nil), m.Answer...), m.Authority...), m.Additional...) {
		out = append(out, rr.Name)
		switch d := rr.Data.(type) {
		case NS:
			out = append(out, d.Host)
		case CNAME:
			out = append(out, d.Target)
		case PTR:
			out = append(out, d.Target)
		case MX:
			out = append(out, d.Host)
		case SOA:
			out = append(out, d.MName, d.RName)
		case RRSIG:
			out = append(out, d.SignerName)
		}
	}
	return out
}

// FuzzDecode drives the wire decoder with arbitrary bytes; it must never
// panic, a decoder given a name source must decode what one without does,
// and anything it accepts must re-encode and re-decode to the same message
// (decode∘encode idempotence on the accepted set).
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid messages of increasing complexity.
	seed := func(m *Message) {
		wire, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	seed(NewQuery(1, NewName("example.org"), TypeA))
	resp := NewQuery(2, NewName("www.example.org"), TypeAAAA).Reply()
	resp.Header.AA = true
	resp.AddAnswer(NewAAAA("www.example.org", 300, "2001:db8::1"))
	resp.AddAuthority(NewNS("example.org", 3600, "ns1.example.org"))
	resp.AddAdditional(NewA("ns1.example.org", 7200, "192.0.2.53"))
	seed(resp)
	soa := NewQuery(3, NewName("x.org"), TypeSOA).Reply()
	soa.AddAnswer(NewSOA("x.org", 60, "ns.x.org", "h.x.org", 1, 2, 3, 4, 5))
	soa.AddAdditional(RR{Name: Root, Type: TypeOPT, Data: OPT{UDPSize: 4096, DO: true}})
	seed(soa)
	unknown := NewQuery(4, NewName("x.org"), Type(999)).Reply()
	unknown.AddAnswer(RR{Name: NewName("x.org"), Type: Type(999), Class: ClassIN, TTL: 5, Data: Unknown{T: 999, Raw: []byte{1, 2, 3}}})
	seed(unknown)
	set := NewQuery(5, NewName("www.x.org"), TypeA).Reply()
	for _, addr := range []string{"192.0.2.1", "192.0.2.2", "192.0.2.3"} {
		set.AddAnswer(NewA("www.x.org", 300, addr))
	}
	seed(set)
	f.Add([]byte("\x00\x06\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x03WWW\x07Example\x03ORG\x00\x00\x01\x00\x01"))
	f.Add([]byte{0xC0, 0x0C})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	// Compression-pointer edge cases. A pointer-to-pointer chain: the
	// question name at offset 12 is a pointer to offset 14, itself a pointer
	// forward — the decoder must reject the forward hop, not loop.
	f.Add([]byte{
		0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, // header, QD=1
		0xC0, 14, // question name: pointer to offset 14
		0xC0, 16, // offset 14: pointer to offset 16 (forward → reject)
		0, // offset 16: root
		0, 1, 0, 1,
	})
	// A legitimate two-hop chain: name at 21 points to 16 ("b." + pointer),
	// which in turn points to 12 ("a.example.org.-ish" label data).
	f.Add([]byte{
		0, 9, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, // header, QD=2
		1, 'a', 0, 0x00, // offset 12: "a." then pad
		1, 'b', 0xC0, 12, // offset 16: "b.a." via pointer
		0, 1, // (type/class bytes for fuzz variety)
		0xC0, 16, // offset 22: pointer → pointer chain
		0, 1, 0, 1,
	})
	// A pointer whose target is the maximum encodable offset 0x3FFF: an
	// answer RR padded past 16 KiB with a zero byte (root name) at exactly
	// 0x3FFF, and a second RR whose owner is the pointer 0xFF,0xFF.
	big := make([]byte, 0, 0x4000+32)
	big = append(big,
		0, 9, 0x80, 0, 0, 0, 0, 2, 0, 0, 0, 0, // header, QR, AN=2
		0,           // RR1 owner: root
		0, 16, 0, 1, // TXT IN
		0, 0, 0, 60,
	)
	pad := 0x3FFF + 1 - (len(big) + 2) // RDATA spans through offset 0x3FFF
	big = append(big, byte(pad>>8), byte(pad))
	for len(big) <= 0x3FFF {
		big = append(big, 0) // TXT of empty strings; byte at 0x3FFF is 0x00
	}
	big = append(big,
		0xFF, 0xFF, // RR2 owner: pointer to 0x3FFF (a root byte)
		0, 1, 0, 1, // A IN
		0, 0, 0, 60,
		0, 4, 192, 0, 2, 1,
	)
	f.Add(big)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		// Whatever the one-shot path decided, the reusable path must agree:
		// a warm Decoder filling a recycled Message is the production decode
		// route and may not diverge from a fresh Decode.
		d := NewDecoder()
		var reused Message
		for i := 0; i < 2; i++ {
			err2 := d.Decode(data, &reused)
			if (err == nil) != (err2 == nil) {
				t.Fatalf("Decoder reuse pass %d disagrees with Decode: %v vs %v", i, err, err2)
			}
		}
		if err == nil {
			if len(reused.Answer) != len(m.Answer) || len(reused.Question) != len(m.Question) ||
				len(reused.Authority) != len(m.Authority) || len(reused.Additional) != len(m.Additional) {
				t.Fatalf("Decoder reuse changed message shape")
			}
		}
		if err != nil {
			return
		}
		src := carelessSource{} // holds every other name, so it lies about the rest
		for i, n := range messageNames(m) {
			if i%2 == 0 {
				src[string(n)] = n
			}
		}
		lending := NewDecoder()
		lending.Names = src
		var lent Message
		if err := lending.Decode(data, &lent); err != nil || !reflect.DeepEqual(&lent, m) {
			t.Fatalf("a decoder with a name source decodes differently (%v):\n%s\nwant\n%s", err, &lent, m)
		}
		wire2, err := Encode(m)
		if err != nil {
			// Some decoded forms are not re-encodable (e.g. counts that
			// exceeded section contents); that is acceptable as long as
			// decoding did not panic.
			return
		}
		m2, err := Decode(wire2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(m2.Answer) != len(m.Answer) || len(m2.Question) != len(m.Question) {
			t.Fatalf("re-decode changed shape: %d/%d answers", len(m2.Answer), len(m.Answer))
		}
	})
}

// concatParent is Name.Parent as it was before it returned a substring: trim
// the dot, cut the first label, put the dot back. The reference the fuzzer
// compares against.
func concatParent(n Name) Name {
	if n.IsRoot() {
		return Root
	}
	s := strings.TrimSuffix(string(n), ".")
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return Name(s[i+1:] + ".")
	}
	return Root
}

// FuzzNameRoundTrip checks name canonicalization stability: NewName is
// idempotent, Parent (a substring) equals the concatenating form it
// replaced, and valid names survive a wire round trip.
func FuzzNameRoundTrip(f *testing.F) {
	f.Add("example.org")
	f.Add("EXAMPLE.ORG.")
	f.Add(".")
	f.Add("a.b.c.d.e.f")
	f.Add("xn--nxasmq6b.example")
	f.Add("org")
	f.Fuzz(func(t *testing.T, s string) {
		n := NewName(s)
		if NewName(string(n)) != n {
			t.Fatalf("NewName not idempotent for %q", s)
		}
		if got, want := n.Parent(), concatParent(n); got != want {
			t.Fatalf("Parent(%q) = %q, want %q", n, got, want)
		}
		if n.Valid() != nil {
			return
		}
		m := NewQuery(1, n, TypeA)
		wire, err := Encode(m)
		if err != nil {
			return // non-ASCII labels etc. may fail encode limits
		}
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("decode of valid name %q failed: %v", n, err)
		}
		if got.Q().Name != n {
			t.Fatalf("name changed in round trip: %q → %q", n, got.Q().Name)
		}
	})
}
