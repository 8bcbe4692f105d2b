package cache

import (
	"fmt"
	"slices"
)

// EvictionPolicy selects how the cache orders entries for eviction under
// pressure (entry-count or byte bound). The zero value is FIFO, the legacy
// behavior: a zero-value Config builds a cache behaviorally identical to
// the pre-pressure-plane implementation.
type EvictionPolicy uint8

const (
	// EvictFIFO evicts oldest-stored first, ignoring accesses. This is the
	// legacy (and zero-value) policy.
	EvictFIFO EvictionPolicy = iota
	// EvictLRU evicts least-recently-used first: every cache hit moves the
	// entry to the tail of the eviction order.
	EvictLRU
	// EvictSLRU is a segmented LRU with TinyLFU admission: new entries land
	// in a probationary segment and are promoted on re-reference; at the
	// bound, a frequency sketch with a doorkeeper decides whether a new key
	// is popular enough to displace the current victim at all. One-hit
	// wonders — the long Zipf tail of DNS names — never push out warm
	// entries.
	EvictSLRU
)

// evictionNames is each EvictionPolicy's one spelling (the -eviction values,
// the cache-pressure report's policy column). String, MarshalText and
// UnmarshalText all read it.
var evictionNames = [...]string{EvictFIFO: "fifo", EvictLRU: "lru", EvictSLRU: "slru"}

func (p EvictionPolicy) String() string {
	if int(p) < len(evictionNames) {
		return evictionNames[p]
	}
	return fmt.Sprintf("EvictionPolicy(%d)", uint8(p))
}

func (p EvictionPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *EvictionPolicy) UnmarshalText(b []byte) error {
	i := slices.Index(evictionNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("cache: unknown eviction policy %q (want one of %q)", b, evictionNames)
	}
	*p = EvictionPolicy(i)
	return nil
}

// Evictor is the pluggable eviction order behind a Cache. Implementations
// own the order structure(s) and track membership through the entry's
// unexported handle fields; the cache calls every method with its lock
// held, so evictors need no locking of their own, and every operation is
// O(1).
type Evictor interface {
	// Push links a newly stored entry into the order.
	Push(e *Entry)
	// Touch notes a cache hit on a resident entry.
	Touch(e *Entry)
	// Record notes a lookup of k (hit or miss), feeding any frequency state
	// the policy keeps for admission decisions.
	Record(k Key)
	// Remove unlinks e from the order.
	Remove(e *Entry)
	// Victim returns the entry the policy would evict next, or nil.
	Victim() *Entry
	// Admit reports whether cand deserves to displace victim when the cache
	// is at its bound. Policies without admission control always say yes.
	Admit(cand Key, victim *Entry) bool
	// Walk visits every resident entry in eviction order (victim first).
	Walk(fn func(e *Entry))
	// Reset empties the order (and any frequency state).
	Reset()
}

// newEvictor builds the evictor for a policy. capacity sizes any frequency
// state (the SLRU sketch and segment split); FIFO and LRU ignore it.
func newEvictor(p EvictionPolicy, capacity int) Evictor {
	switch p {
	case EvictLRU:
		return &lruEvictor{}
	case EvictSLRU:
		return newSLRUEvictor(capacity)
	}
	return &fifoEvictor{}
}

// entryList is an intrusive doubly-linked order list, victim end first: the
// links are the entries' own prev/next fields, so linking a stored entry
// allocates nothing. An entry is on at most one list at a time.
type entryList struct {
	front, back *Entry
	n           int
}

func (l *entryList) pushBack(e *Entry) {
	e.prev, e.next = l.back, nil
	if l.back != nil {
		l.back.next = e
	} else {
		l.front = e
	}
	l.back = e
	l.n++
}

func (l *entryList) remove(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

func (l *entryList) moveToBack(e *Entry) {
	if l.back != e {
		l.remove(e)
		l.pushBack(e)
	}
}

func (l *entryList) walk(fn func(e *Entry)) {
	for e := l.front; e != nil; e = e.next {
		fn(e)
	}
}

// listEvictor is the shared single-list machinery of FIFO and LRU: push to
// back, evict from front. The two differ only in what a hit does.
type listEvictor struct{ order entryList }

func (l *listEvictor) Push(e *Entry)          { l.order.pushBack(e) }
func (l *listEvictor) Record(Key)             {}
func (l *listEvictor) Remove(e *Entry)        { l.order.remove(e) }
func (l *listEvictor) Victim() *Entry         { return l.order.front }
func (l *listEvictor) Admit(Key, *Entry) bool { return true }
func (l *listEvictor) Reset()                 { l.order = entryList{} }
func (l *listEvictor) Walk(fn func(e *Entry)) { l.order.walk(fn) }

// fifoEvictor is the legacy order: insertion order, hits change nothing.
type fifoEvictor struct{ listEvictor }

func (f *fifoEvictor) Touch(*Entry) {}

// lruEvictor keeps one recency list: hits move to the back.
type lruEvictor struct{ listEvictor }

func (l *lruEvictor) Touch(e *Entry) { l.order.moveToBack(e) }

// Segment tags for slruEvictor, stored on the entry so segment membership
// is O(1) without a side map.
const (
	segProbation uint8 = 1
	segProtected uint8 = 2
)

// slruEvictor is a segmented LRU (probation + protected) with a TinyLFU
// frequency sketch and doorkeeper deciding admission at the bound.
//
// New entries enter probation; a hit promotes to protected, whose overflow
// demotes its own LRU end back to probation — scanning workloads churn
// probation while the protected segment holds the proven-warm set. Victims
// come from probation's LRU end first, so a warm entry is never displaced
// by a key that has not earned a second access.
type slruEvictor struct {
	probation entryList
	protected entryList
	protCap   int
	sketch    *freqSketch
}

// protectedFraction is the share of the entry capacity reserved for the
// protected segment, per the SLRU literature's 80/20 split.
const protectedFraction = 0.8

func newSLRUEvictor(capacity int) *slruEvictor {
	protCap := int(float64(capacity) * protectedFraction)
	if protCap < 1 {
		protCap = 1
	}
	return &slruEvictor{
		protCap: protCap,
		sketch:  newFreqSketch(capacity),
	}
}

func (s *slruEvictor) Push(e *Entry) {
	e.seg = segProbation
	s.probation.pushBack(e)
}

func (s *slruEvictor) Touch(e *Entry) {
	if e.seg == segProtected {
		s.protected.moveToBack(e)
		return
	}
	// Promote out of probation; an overflowing protected segment demotes
	// its own LRU end back.
	s.probation.remove(e)
	e.seg = segProtected
	s.protected.pushBack(e)
	if s.protected.n > s.protCap {
		de := s.protected.front
		s.protected.remove(de)
		de.seg = segProbation
		s.probation.pushBack(de)
	}
}

func (s *slruEvictor) Record(k Key) { s.sketch.record(KeyHash(k.Name, k.Type)) }

func (s *slruEvictor) Remove(e *Entry) {
	if e.seg == segProtected {
		s.protected.remove(e)
	} else {
		s.probation.remove(e)
	}
	e.seg = 0
}

func (s *slruEvictor) Victim() *Entry {
	if s.probation.front != nil {
		return s.probation.front
	}
	return s.protected.front
}

// Admit is the TinyLFU doorkeeper decision: the candidate must be strictly
// more popular than the victim to displace it. Ties reject, which keeps a
// stream of one-hit wonders from cycling the probation segment.
func (s *slruEvictor) Admit(cand Key, victim *Entry) bool {
	return s.sketch.estimate(KeyHash(cand.Name, cand.Type)) >
		s.sketch.estimate(KeyHash(victim.Key.Name, victim.Key.Type))
}

func (s *slruEvictor) Walk(fn func(e *Entry)) {
	s.probation.walk(fn)
	s.protected.walk(fn)
}

func (s *slruEvictor) Reset() {
	s.probation, s.protected = entryList{}, entryList{}
	s.sketch.reset()
}
