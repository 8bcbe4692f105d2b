package zone

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dnsttl/internal/dnswire"
)

// model is the plain reference a Zone is checked against: owner → type →
// records, with the RRset TTL kept beside each set. It applies the same
// mutation rules as Zone (RFC 2181 §5.2 and §8, duplicate RDATA ignored)
// and answers Lookup by brute force.
type model struct {
	origin dnswire.Name
	sets   map[dnswire.Name]map[dnswire.Type][]dnswire.RR
	ttls   map[dnswire.Name]map[dnswire.Type]uint32
	events []Change // what a watcher attached now would have received
}

func newModel(origin dnswire.Name) *model {
	return &model{origin: origin,
		sets: make(map[dnswire.Name]map[dnswire.Type][]dnswire.RR),
		ttls: make(map[dnswire.Name]map[dnswire.Type]uint32)}
}

// get copies the records of (name, t); nil when there are none, as in a
// Change.
func (m *model) get(name dnswire.Name, t dnswire.Type) []dnswire.RR {
	return append([]dnswire.RR(nil), m.sets[name][t]...)
}

func (m *model) set(name dnswire.Name, t dnswire.Type, ttl uint32, rrs []dnswire.RR) {
	if len(rrs) == 0 {
		delete(m.sets[name], t)
		delete(m.ttls[name], t)
		if len(m.sets[name]) == 0 {
			delete(m.sets, name)
			delete(m.ttls, name)
		}
		return
	}
	if m.sets[name] == nil {
		m.sets[name] = make(map[dnswire.Type][]dnswire.RR)
		m.ttls[name] = make(map[dnswire.Type]uint32)
	}
	m.sets[name][t], m.ttls[name][t] = rrs, ttl
}

// join adds rr to the records of a set with TTL ttl (ttl is ignored for a
// new set), returning the result and whether it differs.
func join(rrs []dnswire.RR, ttl uint32, rr dnswire.RR) ([]dnswire.RR, uint32, bool) {
	if len(rrs) == 0 {
		if rr.TTL > dnswire.MaxTTL {
			rr.TTL = 0
		}
		return []dnswire.RR{rr}, rr.TTL, true
	}
	for _, have := range rrs {
		if have.Equal(rr) {
			return rrs, ttl, false
		}
	}
	rr.TTL = ttl
	return append(append([]dnswire.RR(nil), rrs...), rr), ttl, true
}

func (m *model) emit(name dnswire.Name, t dnswire.Type, old []dnswire.RR) {
	m.events = append(m.events, Change{Name: name, Type: t, Old: old, New: m.get(name, t)})
}

func (m *model) add(rr dnswire.RR) {
	old := m.get(rr.Name, rr.Type)
	rrs, ttl, changed := join(m.sets[rr.Name][rr.Type], m.ttls[rr.Name][rr.Type], rr)
	if changed {
		m.set(rr.Name, rr.Type, ttl, rrs)
		m.emit(rr.Name, rr.Type, old)
	}
}

func (m *model) remove(name dnswire.Name, t dnswire.Type) bool {
	old := m.get(name, t)
	if len(old) == 0 {
		return false
	}
	m.set(name, t, 0, nil)
	m.emit(name, t, old)
	return true
}

func (m *model) replace(name dnswire.Name, t dnswire.Type, rrs []dnswire.RR) {
	old := m.get(name, t)
	var next []dnswire.RR
	var ttl uint32
	for _, rr := range rrs {
		next, ttl, _ = join(next, ttl, rr)
	}
	m.set(name, t, ttl, next)
	if len(old) > 0 || len(next) > 0 {
		m.emit(name, t, old)
	}
}

func (m *model) setTTL(name dnswire.Name, t dnswire.Type, ttl uint32) bool {
	old := m.get(name, t)
	if len(old) == 0 {
		return false
	}
	if ttl > dnswire.MaxTTL {
		ttl = 0
	}
	if m.ttls[name][t] == ttl {
		return true
	}
	next := m.get(name, t)
	for i := range next {
		next[i].TTL = ttl
	}
	m.set(name, t, ttl, next)
	m.emit(name, t, old)
	return true
}

func (m *model) rrset(name dnswire.Name, t dnswire.Type) *RRSet {
	rrs := m.sets[name][t]
	if len(rrs) == 0 {
		return nil
	}
	return &RRSet{RRs: rrs}
}

// lookup answers by brute force: the delegation walk, the owner's sets, the
// wildcard walk (every "*" child from the parent up to the origin, as Zone
// walks it) and then a scan of every owner for one strictly below name.
func (m *model) lookup(name dnswire.Name, t dnswire.Type) LookupResult {
	if !name.IsSubdomainOf(m.origin) {
		return LookupResult{Kind: NotInZone}
	}
	soa := m.rrset(m.origin, dnswire.TypeSOA)
	for n := name; n != m.origin; n = n.Parent() {
		if cut := m.rrset(n, dnswire.TypeNS); cut != nil {
			var glue []dnswire.RR
			for _, rr := range cut.RRs {
				host := rr.Data.(dnswire.NS).Host
				glue = append(glue, m.sets[host][dnswire.TypeA]...)
				glue = append(glue, m.sets[host][dnswire.TypeAAAA]...)
			}
			return LookupResult{Kind: Delegation, Authority: cut, Glue: glue}
		}
	}
	if len(m.sets[name]) > 0 {
		if set := m.rrset(name, t); set != nil {
			return LookupResult{Kind: Answer, Answer: set}
		}
		if cname := m.rrset(name, dnswire.TypeCNAME); cname != nil && t != dnswire.TypeCNAME {
			return LookupResult{Kind: CNAMEAnswer, Answer: cname}
		}
		return LookupResult{Kind: NoData, Authority: soa}
	}
	for n := name; n != m.origin; {
		n = n.Parent()
		if set := m.rrset(n.Child("*"), t); set != nil {
			syn := set.Clone()
			for i := range syn.RRs {
				syn.RRs[i].Name = name
			}
			return LookupResult{Kind: Answer, Answer: syn}
		}
	}
	for owner := range m.sets {
		if owner != name && owner.IsSubdomainOf(name) {
			return LookupResult{Kind: NoData, Authority: soa}
		}
	}
	return LookupResult{Kind: NXDomain, Authority: soa}
}

// setSerial applies SetSerial: it rewrites the serial of every apex SOA record
// and emits nothing, as the zone's watcher is not told.
func (m *model) setSerial(serial uint32) bool {
	rrs := m.get(m.origin, dnswire.TypeSOA)
	if len(rrs) == 0 {
		return false
	}
	for i := range rrs {
		soa := rrs[i].Data.(dnswire.SOA)
		soa.Serial = serial
		rrs[i].Data = soa
	}
	m.set(m.origin, dnswire.TypeSOA, m.ttls[m.origin][dnswire.TypeSOA], rrs)
	return true
}

// sameResult compares two lookup results, their sets by Type, TTL and RRs:
// how a zone links and stores its sets is not part of the answer.
func sameResult(a, b LookupResult) bool {
	sameSet := func(x, y *RRSet) bool {
		if x == nil || y == nil {
			return x == y
		}
		return x.Type() == y.Type() && x.TTL() == y.TTL() && reflect.DeepEqual(x.RRs, y.RRs)
	}
	return a.Kind == b.Kind && sameSet(a.Answer, b.Answer) && sameSet(a.Authority, b.Authority) &&
		reflect.DeepEqual(a.Glue, b.Glue)
}

// setErr checks the invariant a set's layout relies on, a set keeping its
// owner, type and TTL only in its records: it holds a record, and every
// record carries owner and the set's type and TTL.
func setErr(owner dnswire.Name, set *RRSet) error {
	if len(set.RRs) == 0 {
		return fmt.Errorf("%s: a set without records", owner)
	}
	for _, rr := range set.RRs {
		if rr.Name != owner || rr.Type != set.Type() || rr.TTL != set.TTL() {
			return fmt.Errorf("%s %s, TTL %d: holds the record %s", owner, set.Type(), set.TTL(), rr)
		}
	}
	return nil
}

// storedSetsErr checks setErr for every set stored in z, one set per type
// at an owner, and that z links no set it does not store.
func storedSetsErr(z *Zone) error {
	z.mu.RLock()
	defer z.mu.RUnlock()
	links := 0
	for owner, first := range z.sets {
		types := map[dnswire.Type]bool{}
		for set := first; set != nil; set = z.next[set] {
			if err := setErr(owner, set); err != nil {
				return err
			}
			if types[set.Type()] {
				return fmt.Errorf("%s holds two %s sets", owner, set.Type())
			}
			types[set.Type()] = true
		}
		links += len(types) - 1
	}
	if links != len(z.next) {
		return fmt.Errorf("the zone holds %d links, its sets use %d", len(z.next), links)
	}
	return nil
}

// recountAncestors rebuilds the ancestor index from scratch: for every name
// strictly above some owner, at or below the origin, the number of owners
// strictly below it, counted by brute force.
func recountAncestors(z *Zone) map[dnswire.Name]int {
	want := make(map[dnswire.Name]int)
	for owner := range z.sets {
		for n := owner; n != z.Origin && !n.IsRoot(); {
			n = n.Parent()
			if _, counted := want[n]; counted {
				continue
			}
			for o := range z.sets {
				if o != n && o.IsSubdomainOf(n) {
					want[n]++
				}
			}
		}
	}
	return want
}

// TestZoneMatchesModel runs seeded random sequences of Add, Remove, Replace,
// SetTTL and SetSerial, with a watcher attached and detached along the way,
// against a zone that starts with a delegation and its glue, a wildcard, an
// empty non-terminal and a CNAME. After every step each universe name and a
// set of names no step writes look up as the model says (an answer, wildcard
// synthesis included, carrying the query name in every record), every stored
// set passes setErr, the ancestor index equals a recount, and the watcher has
// seen the model's Change stream.
func TestZoneMatchesModel(t *testing.T) {
	origin := dnswire.NewName("example.org")
	n := dnswire.NewName
	universe := []dnswire.Name{origin, n("www.example.org"), n("mail.example.org"), n("sub.example.org"),
		n("ns1.sub.example.org"), n("*.wild.example.org"), n("deep.ent.example.org")}
	unseen := []dnswire.Name{n("nope.example.org"), n("ent.example.org"), n("wild.example.org"),
		n("a.wild.example.org"), n("b.a.wild.example.org"), n("host.sub.example.org"),
		n("x.deep.ent.example.org"), n("a.www.example.org"), n("example.com")}
	queried := append(append([]dnswire.Name(nil), universe...), unseen...)
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypeMX, dnswire.TypeSOA}
	ttls := []uint32{0, 60, 300, 3600, dnswire.MaxTTL, 1<<31 + 5}
	record := func(r *rand.Rand, name dnswire.Name, t dnswire.Type) dnswire.RR {
		rr := dnswire.RR{Name: name, Type: t, Class: dnswire.ClassIN, TTL: ttls[r.Intn(len(ttls))]}
		i := r.Intn(3)
		switch t {
		case dnswire.TypeA:
			rr.Data = dnswire.NewA("x.", 0, fmt.Sprintf("192.0.2.%d", i+1)).Data
		case dnswire.TypeAAAA:
			rr.Data = dnswire.NewAAAA("x.", 0, fmt.Sprintf("2001:db8::%d", i+1)).Data
		case dnswire.TypeNS:
			rr.Data = dnswire.NS{Host: []dnswire.Name{n("ns1.sub.example.org"), n("www.example.org"), n("ns.example.net")}[i]}
		case dnswire.TypeCNAME:
			rr.Data = dnswire.CNAME{Target: []dnswire.Name{n("www.example.org"), n("mail.example.org"), n("example.net")}[i]}
		case dnswire.TypeMX:
			rr.Data = dnswire.MX{Preference: uint16(10 * i), Host: n("mail.example.org")}
		case dnswire.TypeSOA:
			rr.Data = dnswire.NewSOA(string(origin), 0, "ns1.example.org", "admin.example.org", uint32(i+1), 7200, 3600, 1209600, 300).Data
		}
		return rr
	}

	for seed := int64(1); seed <= 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		z, m := New(origin), newModel(origin)
		for _, set := range newTestZone(t).AllSets() {
			for _, rr := range set.RRs {
				z.MustAdd(rr)
				m.add(rr)
			}
		}
		m.events = nil
		var got []Change
		watched := seed%2 == 0
		watch := func() {
			if watched {
				z.SetWatcher(func(ch Change) { got = append(got, ch) })
			} else {
				z.SetWatcher(nil)
			}
		}
		watch()
		for step := 0; step < 150; step++ {
			name, typ := universe[r.Intn(len(universe))], types[r.Intn(len(types))]
			var op string
			switch k := r.Intn(11); {
			case k < 4:
				rr := record(r, name, typ)
				op = fmt.Sprintf("Add(%s)", rr)
				z.MustAdd(rr)
				m.add(rr)
			case k < 6:
				op = fmt.Sprintf("Remove(%s, %s)", name, typ)
				if ok, want := z.Remove(name, typ), m.remove(name, typ); ok != want {
					t.Fatalf("seed %d step %d: %s = %v, model %v", seed, step, op, ok, want)
				}
			case k < 8:
				rrs := make([]dnswire.RR, r.Intn(3))
				for i := range rrs {
					rrs[i] = record(r, name, typ)
				}
				op = fmt.Sprintf("Replace(%s, %s, %v)", name, typ, rrs)
				if err := z.Replace(name, typ, rrs...); err != nil {
					t.Fatal(err)
				}
				m.replace(name, typ, rrs)
			case k < 9:
				ttl := ttls[r.Intn(len(ttls))]
				op = fmt.Sprintf("SetTTL(%s, %s, %d)", name, typ, ttl)
				if ok, want := z.SetTTL(name, typ, ttl), m.setTTL(name, typ, ttl); ok != want {
					t.Fatalf("seed %d step %d: %s = %v, model %v", seed, step, op, ok, want)
				}
			case k < 10:
				serial := uint32(r.Intn(1000))
				op = fmt.Sprintf("SetSerial(%d)", serial)
				if ok, want := z.SetSerial(serial), m.setSerial(serial); ok != want {
					t.Fatalf("seed %d step %d: %s = %v, model %v", seed, step, op, ok, want)
				}
			default:
				watched = !watched
				op = fmt.Sprintf("watched=%v", watched)
				watch()
			}
			if !watched {
				m.events = nil
			}
			if !reflect.DeepEqual(got, m.events) {
				t.Fatalf("seed %d step %d: after %s the watcher saw\n%v\nthe model\n%v", seed, step, op, got, m.events)
			}
			got, m.events = nil, nil
			for _, name := range queried {
				for _, typ := range types {
					res, want := z.Lookup(name, typ), m.lookup(name, typ)
					if !sameResult(res, want) {
						t.Fatalf("seed %d step %d: after %s Lookup(%s, %s) =\n%+v\nthe model\n%+v", seed, step, op, name, typ, res, want)
					}
					if res.Kind == Answer || res.Kind == CNAMEAnswer {
						if err := setErr(name, res.Answer); err != nil {
							t.Fatalf("seed %d step %d: after %s Lookup(%s, %s): %v", seed, step, op, name, typ, err)
						}
					}
				}
			}
			if err := storedSetsErr(z); err != nil {
				t.Fatalf("seed %d step %d: after %s: %v", seed, step, op, err)
			}
			if want := recountAncestors(z); !reflect.DeepEqual(z.ancestors, want) {
				t.Fatalf("seed %d step %d: after %s ancestors = %v, recount %v", seed, step, op, z.ancestors, want)
			}
		}
	}
}
