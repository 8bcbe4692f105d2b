package dnssec

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

func testKey() *Key { return NewKey(dnswire.NewName("example.org"), 1) }

func testRRset() []dnswire.RR {
	return []dnswire.RR{
		dnswire.NewA("www.example.org", 300, "192.0.2.1"),
		dnswire.NewA("www.example.org", 300, "192.0.2.2"),
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	k := testKey()
	now := simnet.Epoch
	rrs := testRRset()
	sig, err := Sign(k, rrs, now, 0)
	if err != nil {
		t.Fatal(err)
	}
	sd := sig.Data.(dnswire.RRSIG)
	if sd.OriginalTTL != 300 || sd.SignerName != k.Zone || sd.TypeCovered != dnswire.TypeA {
		t.Errorf("RRSIG fields: %+v", sd)
	}
	if err := Verify(k.DNSKEY(3600), rrs, sig, now.Add(time.Hour)); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyAcceptsDecayedTTL(t *testing.T) {
	k := testKey()
	now := simnet.Epoch
	rrs := testRRset()
	sig, _ := Sign(k, rrs, now, 0)
	decayed := testRRset()
	for i := range decayed {
		decayed[i].TTL = 17 // what a cache would report mid-life
	}
	if err := Verify(k.DNSKEY(3600), decayed, sig, now); err != nil {
		t.Errorf("decayed TTLs must verify: %v", err)
	}
}

func TestVerifyRejectsInflatedTTL(t *testing.T) {
	k := testKey()
	now := simnet.Epoch
	rrs := testRRset()
	sig, _ := Sign(k, rrs, now, 0)
	inflated := testRRset()
	inflated[0].TTL = 172800 // parent-style inflation past the signed value
	if err := Verify(k.DNSKEY(3600), inflated, sig, now); err == nil {
		t.Errorf("TTL above OriginalTTL must fail validation (§2)")
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	k := testKey()
	now := simnet.Epoch
	rrs := testRRset()
	sig, _ := Sign(k, rrs, now, 0)
	tampered := testRRset()
	tampered[0] = dnswire.NewA("www.example.org", 300, "203.0.113.66")
	if err := Verify(k.DNSKEY(3600), tampered, sig, now); err == nil {
		t.Errorf("modified RDATA must fail")
	}
	// Wrong key.
	other := NewKey(dnswire.NewName("example.org"), 2)
	if err := Verify(other.DNSKEY(3600), rrs, sig, now); err == nil {
		t.Errorf("wrong key must fail")
	}
}

func TestVerifyValidityWindow(t *testing.T) {
	k := testKey()
	now := simnet.Epoch
	rrs := testRRset()
	sig, _ := Sign(k, rrs, now, time.Hour)
	if err := Verify(k.DNSKEY(3600), rrs, sig, now.Add(2*time.Hour)); err == nil {
		t.Errorf("expired signature must fail")
	}
	if err := Verify(k.DNSKEY(3600), rrs, sig, now.Add(-time.Hour)); err == nil {
		t.Errorf("not-yet-valid signature must fail")
	}
}

func TestSignRejectsBadInput(t *testing.T) {
	k := testKey()
	now := simnet.Epoch
	if _, err := Sign(k, nil, now, 0); err == nil {
		t.Errorf("empty RRset must fail")
	}
	mixed := []dnswire.RR{
		dnswire.NewA("a.example.org", 60, "192.0.2.1"),
		dnswire.NewA("b.example.org", 60, "192.0.2.2"),
	}
	if _, err := Sign(k, mixed, now, 0); err == nil {
		t.Errorf("mixed owners must fail")
	}
	outside := []dnswire.RR{dnswire.NewA("www.example.com", 60, "192.0.2.1")}
	if _, err := Sign(k, outside, now, 0); err == nil {
		t.Errorf("out-of-zone RRset must fail")
	}
}

func TestSignZone(t *testing.T) {
	z := zone.New(dnswire.NewName("example.org"))
	z.MustAdd(
		dnswire.NewSOA("example.org", 3600, "ns1.example.org", "x.example.org", 1, 1, 1, 1, 60),
		dnswire.NewNS("example.org", 3600, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 3600, "192.0.2.1"),
		dnswire.NewA("www.example.org", 300, "192.0.2.80"),
	)
	k := testKey()
	n, err := SignZone(z, k, simnet.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	// SOA, NS, two A sets, DNSKEY = 5 RRsets signed.
	if n != 5 {
		t.Errorf("signed %d RRsets, want 5", n)
	}
	if z.Get(dnswire.NewName("example.org"), dnswire.TypeDNSKEY) == nil {
		t.Errorf("DNSKEY missing from apex")
	}
	sigs := z.Get(dnswire.NewName("www.example.org"), dnswire.TypeRRSIG)
	if sigs == nil {
		t.Fatalf("www RRSIG missing")
	}
	// And the signature verifies against the zone data.
	www := z.Get(dnswire.NewName("www.example.org"), dnswire.TypeA)
	if err := Verify(k.DNSKEY(3600), www.RRs, sigs.RRs[0], simnet.Epoch); err != nil {
		t.Errorf("zone signature invalid: %v", err)
	}
}

func TestDSAndKeyTag(t *testing.T) {
	k := testKey()
	// Different zones produce different keys and tags.
	k2 := NewKey(dnswire.NewName("other.org"), 1)
	if string(k2.Secret) == string(k.Secret) || k2.KeyTag() == k.KeyTag() {
		t.Errorf("keys and tags should differ per zone")
	}
}

// TestQuickSignVerify: for arbitrary small RRsets, Sign → Verify holds, and
// verification fails under any single-record RDATA change.
func TestQuickSignVerify(t *testing.T) {
	k := testKey()
	now := simnet.Epoch
	f := func(octets []byte, ttl uint16) bool {
		if len(octets) == 0 {
			return true
		}
		var rrs []dnswire.RR
		for i := 0; i < len(octets) && i < 4; i++ {
			a := netip.AddrFrom4([4]byte{192, 0, octets[i], byte(i)})
			rrs = append(rrs, dnswire.NewA("h.example.org", uint32(ttl), a.String()))
		}
		sig, err := Sign(k, rrs, now, 0)
		if err != nil {
			return false
		}
		if Verify(k.DNSKEY(3600), rrs, sig, now) != nil {
			return false
		}
		mutated := append([]dnswire.RR(nil), rrs...)
		mutated[0] = dnswire.NewA("h.example.org", uint32(ttl), "198.18.0.1")
		if mutated[0].Data.String() == rrs[0].Data.String() {
			return true // mutation happened to collide; skip
		}
		return Verify(k.DNSKEY(3600), mutated, sig, now) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
