package zone

import (
	"reflect"
	"sync"
	"testing"

	"dnsttl/internal/dnswire"
)

// TestLookupResultImmutable holds the sets a Lookup handed out — the zone's
// stored sets, uncloned — across every mutator: the held sets must not change,
// and the next Lookup must see the change.
func TestLookupResultImmutable(t *testing.T) {
	www := dnswire.NewName("www.example.org")
	apex := dnswire.NewName("example.org")
	mutators := []struct {
		name          string
		owner         dnswire.Name
		typ           dnswire.Type
		mutate        func(z *Zone)
		kindAfterward AnswerKind
	}{
		{"Add", www, dnswire.TypeA, func(z *Zone) { z.MustAdd(dnswire.NewA("www.example.org", 300, "192.0.2.81")) }, Answer},
		{"Replace", www, dnswire.TypeA, func(z *Zone) {
			if err := z.Replace(www, dnswire.TypeA, dnswire.NewA("www.example.org", 60, "198.51.100.1")); err != nil {
				t.Fatal(err)
			}
		}, Answer},
		{"SetTTL", www, dnswire.TypeA, func(z *Zone) { z.SetTTL(www, dnswire.TypeA, 7) }, Answer},
		{"SetSerial", apex, dnswire.TypeSOA, func(z *Zone) { z.SetSerial(99) }, Answer},
		{"Remove", www, dnswire.TypeA, func(z *Zone) { z.Remove(www, dnswire.TypeA) }, NoData},
	}
	for _, m := range mutators {
		z := newTestZone(t)
		held := z.Lookup(m.owner, m.typ)
		if held.Kind != Answer {
			t.Fatalf("%s: setup lookup = %s", m.name, held.Kind)
		}
		before := held.Answer.Clone()
		m.mutate(z)
		if !reflect.DeepEqual(held.Answer, before) {
			t.Errorf("%s changed a set a reader holds:\n got %v\nwant %v", m.name, held.Answer, before)
		}
		after := z.Lookup(m.owner, m.typ)
		if after.Kind != m.kindAfterward || (after.Kind == Answer && reflect.DeepEqual(after.Answer, before)) {
			t.Errorf("%s: the next Lookup does not see the change: %s %v", m.name, after.Kind, after.Answer)
		}
	}

	// The negative answer's SOA and a referral's NS set are stored sets too.
	z := newTestZone(t)
	nx := z.Lookup(dnswire.NewName("nope.example.org"), dnswire.TypeA)
	ref := z.Lookup(dnswire.NewName("deep.sub.example.org"), dnswire.TypeA)
	soaBefore, nsBefore, glueBefore := nx.Authority.Clone(), ref.Authority.Clone(), append([]dnswire.RR(nil), ref.Glue...)
	z.SetSerial(1234)
	z.SetTTL(dnswire.NewName("sub.example.org"), dnswire.TypeNS, 1)
	z.SetTTL(dnswire.NewName("ns1.sub.example.org"), dnswire.TypeA, 1)
	if !reflect.DeepEqual(nx.Authority, soaBefore) || !reflect.DeepEqual(ref.Authority, nsBefore) || !reflect.DeepEqual(ref.Glue, glueBefore) {
		t.Errorf("a mutator changed a held negative answer or referral")
	}
	if z.Serial() != 1234 || z.Lookup(dnswire.NewName("deep.sub.example.org"), dnswire.TypeA).Authority.TTL != 1 {
		t.Errorf("mutations not visible to the next Lookup")
	}
}

// TestOwnerChainCopyOnWrite replaces, then removes, each set of an owner
// holding SOA, NS (two records), A and TXT, so every place in the owner's
// chain is edited. Every set a Lookup handed out before an edit must keep its
// records and its link (its whole chain, compared deeply), and every Lookup
// after it must answer as the model does.
func TestOwnerChainCopyOnWrite(t *testing.T) {
	origin := dnswire.NewName("example.org")
	types := []dnswire.Type{dnswire.TypeSOA, dnswire.TypeNS, dnswire.TypeA, dnswire.TypeTXT}
	owner := []dnswire.RR{
		dnswire.NewSOA("example.org", 3600, "ns1.example.org", "admin.example.org", 1, 7200, 3600, 1209600, 300),
		dnswire.NewNS("example.org", 3600, "ns1.example.org"),
		dnswire.NewNS("example.org", 3600, "ns2.example.org"),
		dnswire.NewA("example.org", 300, "192.0.2.1"),
		dnswire.NewTXT("example.org", 300, "v=1"),
	}
	replacement := map[dnswire.Type]dnswire.RR{
		dnswire.TypeSOA: dnswire.NewSOA("example.org", 60, "ns1.example.org", "admin.example.org", 2, 7200, 3600, 1209600, 300),
		dnswire.TypeNS:  dnswire.NewNS("example.org", 60, "ns3.example.org"),
		dnswire.TypeA:   dnswire.NewA("example.org", 60, "192.0.2.2"),
		dnswire.TypeTXT: dnswire.NewTXT("example.org", 60, "v=2"),
	}
	var deepCopy func(s *RRSet) *RRSet
	deepCopy = func(s *RRSet) *RRSet {
		if s == nil {
			return nil
		}
		c := *s
		c.RRs = append([]dnswire.RR(nil), s.RRs...)
		c.next = deepCopy(s.next)
		return &c
	}
	for _, victim := range types {
		z, m := New(origin), newModel(origin)
		for _, rr := range owner {
			z.MustAdd(rr)
			m.add(rr)
		}
		edits := []struct {
			name string
			edit func()
		}{
			{"Replace", func() {
				if err := z.Replace(origin, victim, replacement[victim]); err != nil {
					t.Fatal(err)
				}
				m.replace(origin, victim, []dnswire.RR{replacement[victim]})
			}},
			{"Remove", func() {
				if ok, want := z.Remove(origin, victim), m.remove(origin, victim); ok != want {
					t.Fatalf("Remove(%s) = %v, model %v", victim, ok, want)
				}
			}},
		}
		for _, e := range edits {
			var held, before []*RRSet
			var links []*RRSet
			for _, typ := range types {
				if set := z.Lookup(origin, typ).Answer; set != nil {
					held, before, links = append(held, set), append(before, deepCopy(set)), append(links, set.next)
				}
			}
			e.edit()
			for i, set := range held {
				if set.next != links[i] || !reflect.DeepEqual(set, before[i]) {
					t.Errorf("%s(%s) changed a held %s set:\n got %+v\nwant %+v", e.name, victim, set.Type, set, before[i])
				}
			}
			for _, typ := range types {
				if res, want := z.Lookup(origin, typ), m.lookup(origin, typ); !sameResult(res, want) {
					t.Errorf("after %s(%s): Lookup(%s) = %+v, the model %+v", e.name, victim, typ, res, want)
				}
			}
		}
	}
}

// TestLookupConcurrentWithMutators races readers that walk every record of
// what Lookup returns against all five mutators; under -race any in-place
// edit of a stored set is a reported data race.
func TestLookupConcurrentWithMutators(t *testing.T) {
	z := newTestZone(t)
	www := dnswire.NewName("www.example.org")
	stop := make(chan struct{})
	var readers, writer sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, name := range []string{"www.example.org", "nope.example.org", "deep.sub.example.org", "x.wild.example.org"} {
					res := z.Lookup(dnswire.NewName(name), dnswire.TypeA)
					for _, set := range []*RRSet{res.Answer, res.Authority} {
						if set == nil {
							continue
						}
						for _, rr := range set.RRs {
							if rr.TTL != set.TTL {
								t.Errorf("%s: record TTL %d in a set of TTL %d: half-applied SetTTL", name, rr.TTL, set.TTL)
								return
							}
						}
					}
				}
			}
		}()
	}
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < 300; i++ {
			z.MustAdd(dnswire.NewA("www.example.org", 300, "192.0.2.81"))
			z.SetTTL(www, dnswire.TypeA, uint32(10+i))
			z.SetSerial(uint32(i))
			z.SetTTL(dnswire.NewName("sub.example.org"), dnswire.TypeNS, uint32(10+i))
			if err := z.Replace(www, dnswire.TypeA, dnswire.NewA("www.example.org", 300, "192.0.2.80")); err != nil {
				t.Error(err)
			}
			z.Remove(www, dnswire.TypeA)
			z.MustAdd(dnswire.NewA("www.example.org", 300, "192.0.2.80"))
		}
	}()
	writer.Wait()
	close(stop)
	readers.Wait()
}
