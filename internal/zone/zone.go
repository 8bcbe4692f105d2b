// Package zone implements the DNS zone data model: RRsets owned by names,
// delegation points with glue, the RFC 1034 §4.3.2 lookup algorithm, and a
// master-file reader/writer. Zones here are what authoritative servers serve
// and what the crawler and generator populate.
package zone

import (
	"fmt"
	"sort"
	"sync"

	"dnsttl/internal/dnswire"
)

// RRSet is the unit of DNS data: all records sharing (name, type, class).
// RFC 2181 §5.2 requires all members to share one TTL; Add enforces this by
// clamping new members to the set's existing TTL.
//
// A set stored in a Zone is immutable: every mutator (Add, Replace, SetTTL,
// SetSerial, Remove) installs a new set in its place and never edits the old
// one. That is what lets Lookup hand out the stored set itself, uncloned, to
// any number of concurrent readers, none of which can observe a half-applied
// change. The other half of the rule is the reader's: a set that came from
// Lookup is read-only — Clone it (or take it from Get) before editing.
type RRSet struct {
	Name dnswire.Name
	Type dnswire.Type
	TTL  uint32
	RRs  []dnswire.RR
	// next links a stored set to its owner's next set (see Zone.sets); a
	// one-record set holds its record in one, RRs = one[:].
	next *RRSet
	one  [1]dnswire.RR
}

// Clone returns a deep-enough copy whose RR slice can be mutated freely,
// linked to no other set.
func (s *RRSet) Clone() *RRSet {
	c := &RRSet{Name: s.Name, Type: s.Type, TTL: s.TTL}
	if len(s.RRs) == 1 {
		c.one[0] = s.RRs[0]
		c.RRs = c.one[:]
	} else {
		c.RRs = append([]dnswire.RR(nil), s.RRs...)
	}
	return c
}

// Change describes one committed zone mutation: the RRset for (Name, Type)
// went from Old to New. Either side may be nil (pure add, pure delete).
// Changes are what a push feed (internal/push) turns into IXFR-shaped
// deltas, so the slices are clones the receiver may retain.
type Change struct {
	Name dnswire.Name
	Type dnswire.Type
	Old  []dnswire.RR
	New  []dnswire.RR
}

// Zone is one zone of authority: an apex with an SOA, plus the names below
// it up to (and including) any delegation points.
type Zone struct {
	mu sync.RWMutex
	// watchMu serializes mutation+watcher pairs: every mutator takes it
	// before mu and releases it only after the watcher callback returns, so
	// concurrent mutations deliver their Change events in commit order. The
	// watcher itself runs outside mu and may therefore read the zone and
	// call SetSerial without deadlocking.
	watchMu sync.Mutex
	watcher func(Change)
	// Origin is the zone apex.
	Origin dnswire.Name
	// sets maps an owner name to the first of its RRsets, one per type,
	// chained by RRSet.next: owners hold one to four types, and a one-A
	// owner is its map slot and one RRSet. putSetLocked is the one writer,
	// and a stored set's link is as immutable as its records.
	sets map[dnswire.Name]*RRSet
	// ancestors counts, for every name strictly above an owner up to the
	// origin, how many owner names sit below it — it makes empty
	// non-terminal detection O(label count) instead of a full-zone scan.
	// An owner's own name is in sets, so it has no entry here for that.
	ancestors map[dnswire.Name]int
}

// New creates an empty zone rooted at origin.
func New(origin dnswire.Name) *Zone {
	return &Zone{
		Origin:    origin,
		sets:      make(map[dnswire.Name]*RRSet),
		ancestors: make(map[dnswire.Name]int),
	}
}

// SetWatcher installs fn to observe committed mutations (Add, Remove,
// Replace, SetTTL). The callback runs synchronously with the zone unlocked
// but the mutation stream serialized: events arrive in commit order, and fn
// may read the zone or call SetSerial. A nil fn detaches the watcher.
func (z *Zone) SetWatcher(fn func(Change)) {
	z.watchMu.Lock()
	defer z.watchMu.Unlock()
	z.watcher = fn
}

// commit runs change, which edits the RRset for (name, t) under z.mu and
// reports whether the zone changed, and hands a changed set to the watcher.
// The before and after copies a Change carries are taken only when a
// watcher is attached: loading a zone builds no event it would throw away.
// The watcher runs with watchMu held and mu released.
func (z *Zone) commit(name dnswire.Name, t dnswire.Type, change func() bool) {
	z.watchMu.Lock()
	defer z.watchMu.Unlock()
	z.mu.Lock()
	var ch Change
	if z.watcher != nil {
		ch = Change{Name: name, Type: t, Old: z.snapshotLocked(name, t)}
	}
	changed := change()
	if changed && z.watcher != nil {
		ch.New = z.snapshotLocked(name, t)
	}
	z.mu.Unlock()
	if changed && z.watcher != nil {
		z.watcher(ch)
	}
}

// SetSerial rewrites the SOA serial, reporting whether the zone has an SOA.
// It deliberately does not fire the watcher: the push feed calls it from
// inside its own change handler to stamp the serial it just allocated.
func (z *Zone) SetSerial(serial uint32) bool {
	z.mu.Lock()
	defer z.mu.Unlock()
	set := z.lookupSetLocked(z.Origin, dnswire.TypeSOA)
	if set == nil || len(set.RRs) == 0 {
		return false
	}
	next := set.Clone()
	for i := range next.RRs {
		soa, ok := next.RRs[i].Data.(dnswire.SOA)
		if !ok {
			return false
		}
		soa.Serial = serial
		next.RRs[i].Data = soa
	}
	z.putSetLocked(z.Origin, dnswire.TypeSOA, next)
	return true
}

// Serial returns the zone's SOA serial, or 0 if the zone has no SOA.
func (z *Zone) Serial() uint32 {
	rr, _ := z.SOA()
	soa, _ := rr.Data.(dnswire.SOA)
	return soa.Serial
}

// indexOwnerLocked updates the ancestor index when owner gains (delta=1) or
// loses (delta=-1) its first or last RRset: every name strictly above owner,
// up to the origin, counts it.
func (z *Zone) indexOwnerLocked(owner dnswire.Name, delta int) {
	for n := owner; n != z.Origin && !n.IsRoot(); {
		n = n.Parent()
		z.ancestors[n] += delta
		if z.ancestors[n] == 0 {
			delete(z.ancestors, n)
		}
	}
}

// Add inserts rr into the zone. The record's owner must be at or below the
// zone origin. If an RRset already exists for (name, type), the record joins
// it and its TTL is clamped to the set's TTL (RFC 2181 §5.2); duplicate
// RDATA is ignored.
func (z *Zone) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(z.Origin) {
		return fmt.Errorf("zone %s: record %s out of zone", z.Origin, rr.Name)
	}
	z.commit(rr.Name, rr.Type, func() bool { return z.addLocked(rr) })
	return nil
}

// addLocked inserts rr under z.mu, reporting whether the zone changed
// (false when rr duplicates existing RDATA).
func (z *Zone) addLocked(rr dnswire.RR) bool {
	set := z.lookupSetLocked(rr.Name, rr.Type)
	if set == nil {
		set = &RRSet{Name: rr.Name, Type: rr.Type, TTL: rr.TTL, one: [1]dnswire.RR{rr}}
		set.RRs = set.one[:]
		z.putSetLocked(rr.Name, rr.Type, set)
		return true
	}
	for _, have := range set.RRs {
		if have.Equal(rr) {
			return false
		}
	}
	// The stored set may be in a reader's hands: the record joins a copy.
	rr.TTL = set.TTL
	rrs := append(make([]dnswire.RR, 0, len(set.RRs)+1), set.RRs...)
	z.putSetLocked(rr.Name, rr.Type, &RRSet{Name: set.Name, Type: set.Type, TTL: set.TTL, RRs: append(rrs, rr)})
	return true
}

// snapshotLocked clones the RRs of (name, t) under z.mu, or returns nil.
func (z *Zone) snapshotLocked(name dnswire.Name, t dnswire.Type) []dnswire.RR {
	set := z.lookupSetLocked(name, t)
	if set == nil {
		return nil
	}
	return append([]dnswire.RR(nil), set.RRs...)
}

// MustAdd is Add that panics; for tests and generators.
func (z *Zone) MustAdd(rrs ...dnswire.RR) {
	for _, rr := range rrs {
		if err := z.Add(rr); err != nil {
			panic(err)
		}
	}
}

// Remove deletes the RRset for (name, t). It reports whether anything was
// removed.
func (z *Zone) Remove(name dnswire.Name, t dnswire.Type) bool {
	removed := false
	z.commit(name, t, func() bool {
		removed = z.putSetLocked(name, t, nil) != nil
		return removed
	})
	return removed
}

// Replace atomically swaps the RRset for (name, t) with the given records,
// which must all share that name and type. This is how experiments
// "renumber" a server (§4.2 of the paper).
func (z *Zone) Replace(name dnswire.Name, t dnswire.Type, rrs ...dnswire.RR) error {
	for _, rr := range rrs {
		if rr.Name != name || rr.Type != t {
			return fmt.Errorf("zone %s: Replace(%s, %s) given mismatched record %s", z.Origin, name, t, rr)
		}
		if !rr.Name.IsSubdomainOf(z.Origin) {
			return fmt.Errorf("zone %s: record %s out of zone", z.Origin, rr.Name)
		}
	}
	z.commit(name, t, func() bool {
		removed := z.putSetLocked(name, t, nil) != nil
		for _, rr := range rrs {
			z.addLocked(rr)
		}
		return removed || len(rrs) > 0
	})
	return nil
}

// SetTTL rewrites the TTL of the RRset for (name, t). It reports whether the
// set exists. This is the zone-operator action studied in §5.3 (".uy raised
// its NS TTL from 300 s to 86400 s").
func (z *Zone) SetTTL(name dnswire.Name, t dnswire.Type, ttl uint32) bool {
	found := false
	z.commit(name, t, func() bool {
		set := z.lookupSetLocked(name, t)
		found = set != nil
		if set == nil || set.TTL == ttl {
			return false
		}
		retimed := set.Clone()
		retimed.TTL = ttl
		for i := range retimed.RRs {
			retimed.RRs[i].TTL = ttl
		}
		z.putSetLocked(name, t, retimed)
		return retimed.TTL != set.TTL // an oversize ttl was stored as 0, maybe as before
	})
	return found
}

// lookupSetLocked returns the stored RRset for (name, t), or nil.
func (z *Zone) lookupSetLocked(name dnswire.Name, t dnswire.Type) *RRSet {
	return setOfType(z.sets[name], t)
}

// setOfType walks one owner's chain of sets for type t.
func setOfType(head *RRSet, t dnswire.Type) *RRSet {
	for set := head; set != nil; set = set.next {
		if set.Type == t {
			return set
		}
	}
	return nil
}

// putSetLocked installs set as the RRset for (name, t), in the place of the
// stored one or at the head of the owner's chain, and returns the set it
// displaced; a nil set deletes. It is the one writer of z.sets, so the rules
// of what is stored live here: a TTL above 2^31-1 is stored as 0 (RFC 2181
// §8; set is the caller's own, not yet shared), the sets ahead of a replaced
// or deleted one are relinked as copies, and the ancestor index moves when
// name gains its first set or loses its last.
func (z *Zone) putSetLocked(name dnswire.Name, t dnswire.Type, set *RRSet) *RRSet {
	if set != nil && set.TTL > dnswire.MaxTTL {
		set.TTL = 0
		for i := range set.RRs {
			set.RRs[i].TTL = 0
		}
	}
	head := z.sets[name]
	have := setOfType(head, t)
	if have == nil {
		if set != nil {
			if head == nil {
				z.indexOwnerLocked(name, 1)
			}
			set.next = head
			z.sets[name] = set
		}
		return nil
	}
	rest := have.next
	if set != nil {
		set.next, rest = rest, set
	}
	if head = relinkAhead(head, have, rest); head == nil {
		delete(z.sets, name)
		z.indexOwnerLocked(name, -1)
	} else {
		z.sets[name] = head
	}
	return have
}

// relinkAhead returns copies of the chain's sets from set up to stop, in
// order, followed by rest.
func relinkAhead(set, stop, rest *RRSet) *RRSet {
	if set == stop {
		return rest
	}
	c := set.Clone()
	c.next = relinkAhead(set.next, stop, rest)
	return c
}

// Get returns a copy of the RRset for (name, t), or nil.
func (z *Zone) Get(name dnswire.Name, t dnswire.Type) *RRSet {
	z.mu.RLock()
	defer z.mu.RUnlock()
	set := z.lookupSetLocked(name, t)
	if set == nil {
		return nil
	}
	return set.Clone()
}

// Owner returns the zone's own string for the owner name whose bytes are
// spelling, or false when no name in the zone owns records. One index probe;
// a decoder borrows the name instead of allocating a copy of it.
func (z *Zone) Owner(spelling []byte) (dnswire.Name, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if head := z.sets[dnswire.Name(spelling)]; head != nil {
		return head.Name, true
	}
	return "", false
}

// SOA returns the zone's SOA record, or false if the zone has none.
func (z *Zone) SOA() (dnswire.RR, bool) {
	set := z.Get(z.Origin, dnswire.TypeSOA)
	if set == nil || len(set.RRs) == 0 {
		return dnswire.RR{}, false
	}
	return set.RRs[0], true
}

// Names returns all owner names in the zone, sorted.
func (z *Zone) Names() []dnswire.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]dnswire.Name, 0, len(z.sets))
	for n := range z.sets {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllSets returns copies of every RRset in the zone, in sorted owner order.
func (z *Zone) AllSets() []*RRSet {
	names := z.Names()
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []*RRSet
	for _, n := range names {
		first := len(out)
		for set := z.sets[n]; set != nil; set = set.next {
			out = append(out, set.Clone())
		}
		owned := out[first:]
		sort.Slice(owned, func(i, j int) bool { return owned[i].Type < owned[j].Type })
	}
	return out
}

// Transfer returns the whole zone in RFC 5936 framing — SOA, every other
// record, SOA again — the answer section of an AXFR and of an IXFR that
// falls back to one. It reports false for a zone without an SOA.
func (z *Zone) Transfer() ([]dnswire.RR, bool) {
	soa, ok := z.SOA()
	if !ok {
		return nil, false
	}
	out := []dnswire.RR{soa}
	for _, set := range z.AllSets() {
		for _, rr := range set.RRs {
			if rr.Type != dnswire.TypeSOA || rr.Name != z.Origin {
				out = append(out, rr)
			}
		}
	}
	return append(out, soa), true
}

// delegationForLocked walks from name up toward the origin looking for an NS
// set owned strictly below the origin — a zone cut. It returns the stored
// set, under z.mu.
func (z *Zone) delegationForLocked(name dnswire.Name) *RRSet {
	for n := name; n != z.Origin && !n.IsRoot(); n = n.Parent() {
		if set := z.lookupSetLocked(n, dnswire.TypeNS); set != nil {
			return set
		}
	}
	return nil
}

// RecordCount returns the total number of records in the zone.
func (z *Zone) RecordCount() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, head := range z.sets {
		for set := head; set != nil; set = set.next {
			n += len(set.RRs)
		}
	}
	return n
}
