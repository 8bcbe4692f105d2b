package zone

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"dnsttl/internal/dnswire"
)

func newTestZone(t *testing.T) *Zone {
	t.Helper()
	z := New(dnswire.NewName("example.org"))
	z.MustAdd(
		dnswire.NewSOA("example.org", 3600, "ns1.example.org", "admin.example.org", 1, 7200, 3600, 1209600, 300),
		dnswire.NewNS("example.org", 172800, "ns1.example.org"),
		dnswire.NewNS("example.org", 172800, "ns2.example.org"),
		dnswire.NewA("ns1.example.org", 86400, "192.0.2.1"),
		dnswire.NewA("ns2.example.org", 86400, "192.0.2.2"),
		dnswire.NewA("www.example.org", 300, "192.0.2.80"),
		dnswire.NewAAAA("www.example.org", 300, "2001:db8::80"),
		dnswire.NewCNAME("mail.example.org", 600, "www.example.org"),
		dnswire.NewMX("example.org", 3600, 10, "mx.example.org"),
		// Delegation with in-bailiwick glue.
		dnswire.NewNS("sub.example.org", 3600, "ns1.sub.example.org"),
		dnswire.NewA("ns1.sub.example.org", 7200, "192.0.2.53"),
		// Wildcard.
		dnswire.NewA("*.wild.example.org", 60, "192.0.2.99"),
		// Empty non-terminal: only a grandchild exists under "ent".
		dnswire.NewA("deep.ent.example.org", 60, "192.0.2.100"),
	)
	return z
}

func TestAddRejectsOutOfZone(t *testing.T) {
	z := New(dnswire.NewName("example.org"))
	if err := z.Add(dnswire.NewA("example.com", 60, "192.0.2.1")); err == nil {
		t.Fatal("out-of-zone record must be rejected")
	}
}

func TestAddClampsTTLToRRSet(t *testing.T) {
	z := New(dnswire.NewName("example.org"))
	z.MustAdd(dnswire.NewA("x.example.org", 100, "192.0.2.1"))
	z.MustAdd(dnswire.NewA("x.example.org", 999, "192.0.2.2"))
	set := z.Get(dnswire.NewName("x.example.org"), dnswire.TypeA)
	if set.TTL() != 100 {
		t.Errorf("set TTL = %d, want 100", set.TTL())
	}
	for _, rr := range set.RRs {
		if rr.TTL != 100 {
			t.Errorf("member TTL = %d, want 100 (RFC 2181 §5.2)", rr.TTL)
		}
	}
}

func TestAddDeduplicates(t *testing.T) {
	z := New(dnswire.NewName("example.org"))
	z.MustAdd(dnswire.NewA("x.example.org", 100, "192.0.2.1"))
	z.MustAdd(dnswire.NewA("x.example.org", 100, "192.0.2.1"))
	set := z.Get(dnswire.NewName("x.example.org"), dnswire.TypeA)
	if len(set.RRs) != 1 {
		t.Errorf("duplicate RDATA should be ignored, got %d records", len(set.RRs))
	}
}

func TestAddZeroesOversizeTTL(t *testing.T) {
	z := New(dnswire.NewName("example.org"))
	rr := dnswire.NewA("x.example.org", 0, "192.0.2.1")
	rr.TTL = 1 << 31 // exceeds RFC 2181 §8 limit
	z.MustAdd(rr)
	if set := z.Get(dnswire.NewName("x.example.org"), dnswire.TypeA); set.TTL() != 0 {
		t.Errorf("TTL > 2^31-1 must be treated as 0, got %d", set.TTL())
	}
}

// TestSetTTLZeroesOversizeTTL: SetTTL applies the RFC 2181 §8 rule Add and
// Replace apply, to the set and each member, and asking again for an
// oversize TTL once it reads 0 is no change.
func TestSetTTLZeroesOversizeTTL(t *testing.T) {
	z := New(dnswire.NewName("example.org"))
	name := dnswire.NewName("x.example.org")
	z.MustAdd(dnswire.NewA("x.example.org", 300, "192.0.2.1"))
	var events []Change
	z.SetWatcher(func(ch Change) { events = append(events, ch) })
	for i := 0; i < 2; i++ {
		if !z.SetTTL(name, dnswire.TypeA, 1<<31+5) {
			t.Fatal("SetTTL missed the set")
		}
	}
	if set := z.Get(name, dnswire.TypeA); set.TTL() != 0 || set.RRs[0].TTL != 0 {
		t.Errorf("TTL > 2^31-1 must be stored as 0, got set %d, record %d", set.TTL(), set.RRs[0].TTL)
	}
	if len(events) != 1 {
		t.Errorf("%d watcher events, want 1 (300 -> 0, then nothing)", len(events))
	}
}

func TestLookupAnswer(t *testing.T) {
	z := newTestZone(t)
	res := z.Lookup(dnswire.NewName("www.example.org"), dnswire.TypeA)
	if res.Kind != Answer {
		t.Fatalf("kind = %s, want answer", res.Kind)
	}
	if len(res.Answer.RRs) != 1 || res.Answer.TTL() != 300 {
		t.Errorf("answer = %+v", res.Answer)
	}
}

func TestLookupNoData(t *testing.T) {
	z := newTestZone(t)
	res := z.Lookup(dnswire.NewName("www.example.org"), dnswire.TypeMX)
	if res.Kind != NoData {
		t.Fatalf("kind = %s, want nodata", res.Kind)
	}
	if res.Authority == nil || res.Authority.Type() != dnswire.TypeSOA {
		t.Errorf("negative answer must carry SOA, got %+v", res.Authority)
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := newTestZone(t)
	res := z.Lookup(dnswire.NewName("nope.example.org"), dnswire.TypeA)
	if res.Kind != NXDomain {
		t.Fatalf("kind = %s, want nxdomain", res.Kind)
	}
	if res.Authority == nil || res.Authority.Type() != dnswire.TypeSOA {
		t.Errorf("NXDOMAIN must carry SOA")
	}
}

func TestLookupEmptyNonTerminal(t *testing.T) {
	z := newTestZone(t)
	res := z.Lookup(dnswire.NewName("ent.example.org"), dnswire.TypeA)
	if res.Kind != NoData {
		t.Fatalf("empty non-terminal: kind = %s, want nodata", res.Kind)
	}
}

func TestLookupCNAME(t *testing.T) {
	z := newTestZone(t)
	res := z.Lookup(dnswire.NewName("mail.example.org"), dnswire.TypeA)
	if res.Kind != CNAMEAnswer {
		t.Fatalf("kind = %s, want cname", res.Kind)
	}
	if res.Answer.RRs[0].Data.(dnswire.CNAME).Target != dnswire.NewName("www.example.org") {
		t.Errorf("cname target wrong: %+v", res.Answer.RRs[0])
	}
	// Query for the CNAME type itself returns it as a plain answer.
	res = z.Lookup(dnswire.NewName("mail.example.org"), dnswire.TypeCNAME)
	if res.Kind != Answer {
		t.Errorf("CNAME-type query: kind = %s, want answer", res.Kind)
	}
}

func TestLookupDelegationWithGlue(t *testing.T) {
	z := newTestZone(t)
	res := z.Lookup(dnswire.NewName("host.sub.example.org"), dnswire.TypeA)
	if res.Kind != Delegation {
		t.Fatalf("kind = %s, want delegation", res.Kind)
	}
	if res.Authority.RRs[0].Name != dnswire.NewName("sub.example.org") || res.Authority.Type() != dnswire.TypeNS {
		t.Errorf("authority = %+v", res.Authority)
	}
	if len(res.Glue) != 1 || res.Glue[0].Name != dnswire.NewName("ns1.sub.example.org") {
		t.Errorf("glue = %+v", res.Glue)
	}
	// A query at the cut itself is also a referral.
	res = z.Lookup(dnswire.NewName("sub.example.org"), dnswire.TypeNS)
	if res.Kind != Delegation {
		t.Errorf("query at cut: kind = %s, want delegation", res.Kind)
	}
}

func TestLookupWildcard(t *testing.T) {
	z := newTestZone(t)
	res := z.Lookup(dnswire.NewName("anything.wild.example.org"), dnswire.TypeA)
	if res.Kind != Answer {
		t.Fatalf("kind = %s, want answer via wildcard", res.Kind)
	}
	if res.Answer.RRs[0].Name != dnswire.NewName("anything.wild.example.org") {
		t.Errorf("wildcard answer must be synthesized at the query name, got %s", res.Answer.RRs[0].Name)
	}
	if res.Answer.RRs[0].Data.(dnswire.A).Addr.String() != "192.0.2.99" {
		t.Errorf("wildcard RDATA wrong")
	}
}

func TestLookupNotInZone(t *testing.T) {
	z := newTestZone(t)
	if res := z.Lookup(dnswire.NewName("example.com"), dnswire.TypeA); res.Kind != NotInZone {
		t.Errorf("kind = %s, want notinzone", res.Kind)
	}
}

func TestReplaceRenumbers(t *testing.T) {
	z := newTestZone(t)
	name := dnswire.NewName("www.example.org")
	err := z.Replace(name, dnswire.TypeA, dnswire.NewA("www.example.org", 300, "198.51.100.1"))
	if err != nil {
		t.Fatal(err)
	}
	set := z.Get(name, dnswire.TypeA)
	if len(set.RRs) != 1 || set.RRs[0].Data.(dnswire.A).Addr.String() != "198.51.100.1" {
		t.Errorf("renumber failed: %+v", set)
	}
	// Mismatched record rejected.
	if err := z.Replace(name, dnswire.TypeA, dnswire.NewA("other.example.org", 1, "192.0.2.9")); err == nil {
		t.Errorf("Replace must reject mismatched names")
	}
}

func TestSetTTL(t *testing.T) {
	z := newTestZone(t)
	if !z.SetTTL(dnswire.NewName("example.org"), dnswire.TypeNS, 86400) {
		t.Fatal("SetTTL on existing set returned false")
	}
	set := z.Get(dnswire.NewName("example.org"), dnswire.TypeNS)
	if set.TTL() != 86400 || set.RRs[0].TTL != 86400 {
		t.Errorf("SetTTL did not propagate: %+v", set)
	}
	if z.SetTTL(dnswire.NewName("missing.example.org"), dnswire.TypeA, 1) {
		t.Errorf("SetTTL on missing set should be false")
	}
}

func TestRemove(t *testing.T) {
	z := newTestZone(t)
	if !z.Remove(dnswire.NewName("www.example.org"), dnswire.TypeA) {
		t.Fatal("Remove returned false")
	}
	if z.Get(dnswire.NewName("www.example.org"), dnswire.TypeA) != nil {
		t.Errorf("record still present after Remove")
	}
	// AAAA remains.
	if z.Get(dnswire.NewName("www.example.org"), dnswire.TypeAAAA) == nil {
		t.Errorf("Remove deleted too much")
	}
	if z.Remove(dnswire.NewName("www.example.org"), dnswire.TypeA) {
		t.Errorf("second Remove should be false")
	}
}

func TestSOAAndCounts(t *testing.T) {
	z := newTestZone(t)
	soa, ok := z.SOA()
	if !ok || soa.Data.(dnswire.SOA).Minimum != 300 {
		t.Errorf("SOA: %v %v", soa, ok)
	}
	if n := z.RecordCount(); n != 13 {
		t.Errorf("RecordCount = %d, want 13", n)
	}
	names := z.Names()
	if len(names) == 0 || names[0] > names[len(names)-1] {
		t.Errorf("Names not sorted: %v", names)
	}
	empty := New(dnswire.NewName("x.org"))
	if _, ok := empty.SOA(); ok {
		t.Errorf("empty zone should have no SOA")
	}
}

func TestClassifyBailiwick(t *testing.T) {
	dom := dnswire.NewName("example.org")
	n := func(s string) dnswire.Name { return dnswire.NewName(s) }
	cases := []struct {
		hosts []dnswire.Name
		want  BailiwickClass
	}{
		{[]dnswire.Name{n("ns1.example.org"), n("ns2.example.org")}, BailiwickInOnly},
		{[]dnswire.Name{n("ns1.dns-host.com"), n("ns2.dns-host.com")}, BailiwickOutOnly},
		{[]dnswire.Name{n("ns1.example.org"), n("ns2.dns-host.com")}, BailiwickMixed},
		{nil, BailiwickNone},
	}
	for _, c := range cases {
		if got := ClassifyBailiwick(dom, c.hosts); got != c.want {
			t.Errorf("ClassifyBailiwick(%v) = %s, want %s", c.hosts, got, c.want)
		}
	}
	if !InBailiwick(n("a.b.example.org"), dom) || InBailiwick(n("a.example.com"), dom) {
		t.Errorf("InBailiwick predicate wrong")
	}
}

// nameExists reports whether any RRset is owned by name, or whether name is
// an empty non-terminal: the owner map and then the ancestor index, the two
// reads Lookup's NXDOMAIN decision makes.
func (z *Zone) nameExists(name dnswire.Name) bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	_, owner := z.sets[name]
	return owner || z.ancestors[name] > 0
}

// TestQuickLookupTotal: Lookup must classify every possible name somewhere
// under the origin without panicking, and NXDomain implies nameExists=false.
func TestQuickLookupTotal(t *testing.T) {
	z := newTestZone(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		labels := []string{"www", "sub", "ns1", "wild", "x", "ent", "deep", "*"}
		name := dnswire.Name("example.org.")
		for i := 0; i < r.Intn(4); i++ {
			name = name.Child(labels[r.Intn(len(labels))])
		}
		res := z.Lookup(name, dnswire.TypeA)
		if res.Kind == NXDomain && z.nameExists(name) {
			t.Logf("NXDomain for existing name %s", name)
			return false
		}
		if res.Kind == Answer && (res.Answer == nil || len(res.Answer.RRs) == 0) {
			t.Logf("Answer with no records for %s", name)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIsDelegatedAndStrings(t *testing.T) {
	z := newTestZone(t)
	if k := z.Lookup(dnswire.NewName("host.sub.example.org"), dnswire.TypeA).Kind; k != Delegation {
		t.Errorf("name under cut: %s, want delegation", k)
	}
	if k := z.Lookup(dnswire.NewName("www.example.org"), dnswire.TypeA).Kind; k == Delegation {
		t.Errorf("in-zone name is not delegated")
	}
	for k, want := range map[AnswerKind]string{
		Answer: "answer", NoData: "nodata", NXDomain: "nxdomain",
		Delegation: "delegation", CNAMEAnswer: "cname", NotInZone: "notinzone",
		AnswerKind(99): "unknown",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	for b, want := range map[BailiwickClass]string{
		BailiwickInOnly: "in-only", BailiwickOutOnly: "out-only",
		BailiwickMixed: "mixed", BailiwickNone: "none", BailiwickClass(9): "unknown",
	} {
		if b.String() != want {
			t.Errorf("%d.String() = %q", b, b.String())
		}
	}
}

func TestMustAddPanics(t *testing.T) {
	z := New(dnswire.NewName("example.org"))
	defer func() {
		if recover() == nil {
			t.Errorf("MustAdd out-of-zone should panic")
		}
	}()
	z.MustAdd(dnswire.NewA("example.com", 1, "192.0.2.1"))
}

// TestQuickAncestorIndex: nameExists (backed by the incremental ancestor
// index) always agrees with a brute-force scan, across random Add/Remove
// sequences.
func TestQuickAncestorIndex(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(ops []uint16) bool {
		z := New(dnswire.NewName("example.org"))
		for _, op := range ops {
			name := dnswire.Name("example.org.")
			for d := 0; d < int(op%3)+1; d++ {
				name = name.Child(labels[int(op>>uint(2*d))%len(labels)])
			}
			if op&0x8000 == 0 {
				z.MustAdd(dnswire.RR{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
					TTL: 60, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
			} else {
				z.Remove(name, dnswire.TypeA)
			}
		}
		// Brute force: a name exists iff some owner is at or below it.
		owners := z.Names()
		check := func(name dnswire.Name) bool {
			for _, o := range owners {
				if o.IsSubdomainOf(name) {
					return true
				}
			}
			return false
		}
		for _, l1 := range labels {
			for _, l2 := range labels {
				n1 := dnswire.NewName("example.org").Child(l1)
				n2 := n1.Child(l2)
				for _, n := range []dnswire.Name{n1, n2, n2.Child(l1)} {
					if z.nameExists(n) != check(n) {
						t.Logf("nameExists(%s) = %v, brute force %v (owners %v)",
							n, z.nameExists(n), check(n), owners)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
