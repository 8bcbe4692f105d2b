// Package cache implements a recursive resolver's record cache with the
// mechanisms whose interactions the paper studies: TTL decay against a
// clock, RFC 2181 §5.4.1 credibility ranking (so authoritative child data
// outranks parent glue), RFC 2308 negative caching, TTL capping as
// deployed resolvers do, serve-stale (RFC 8767), and glue
// tagging so resolver policy can couple an in-bailiwick A record's lifetime
// to its covering NS RRset.
//
// Beyond TTL decay, the cache models memory pressure: entries are charged
// their uncompressed wire-format size, a MaxBytes bound can force eviction
// before TTL expiry, and the eviction order is pluggable (FIFO, LRU, or
// segmented-LRU with TinyLFU admission) — the regime where cache size, not
// TTL, limits the hit rate.
package cache

import (
	"sync"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// Credibility ranks how trustworthy cached data is, after RFC 2181 §5.4.1.
// Higher values replace lower ones; lower values never overwrite unexpired
// higher ones. This ranking is what makes most resolvers child-centric
// (§3 of the paper): the child's authoritative answer outranks the parent's
// glue, but only once the child has actually been asked.
type Credibility uint8

const (
	// CredAdditional: glue from a referral's additional section.
	CredAdditional Credibility = iota + 1
	// CredAuthorityReferral: NS records in a referral's authority section.
	CredAuthorityReferral
	// CredAuthorityAuth: authority-section data of an authoritative answer.
	CredAuthorityAuth
	// CredAnswerNonAuth: answer-section data without the AA bit (e.g. from
	// a forwarder).
	CredAnswerNonAuth
	// CredAnswerAuth: answer-section data with the AA bit — the child
	// zone's own statement.
	CredAnswerAuth
)

func (c Credibility) String() string {
	switch c {
	case CredAdditional:
		return "additional"
	case CredAuthorityReferral:
		return "authority-referral"
	case CredAuthorityAuth:
		return "authority-auth"
	case CredAnswerNonAuth:
		return "answer-nonauth"
	case CredAnswerAuth:
		return "answer-auth"
	}
	return "none"
}

// Key identifies a cache entry.
type Key struct {
	Name dnswire.Name
	Type dnswire.Type
}

// NegativeKind distinguishes cached negative answers.
type NegativeKind uint8

const (
	// NotNegative marks a positive entry.
	NotNegative NegativeKind = iota
	// NegNXDomain caches "name does not exist".
	NegNXDomain
	// NegNoData caches "name exists, type does not".
	NegNoData
)

// Entry is one cached RRset (or negative answer). Its fields are ordered so
// it fills a 160 B size class exactly.
type Entry struct {
	Key    Key
	RRs    []dnswire.RR
	Stored time.Time
	// GlueOf, when set, names the delegation NS owner this entry arrived
	// as glue for; resolver policy may couple its lifetime to that NS set.
	GlueOf   dnswire.Name
	TTL      uint32
	Cred     Credibility
	Negative NegativeKind

	// Eviction-plane bookkeeping, owned by the cache that stores the entry
	// and guarded by its lock. prev/next link the entry into its evictor's
	// order list (intrusive: a stored RRset is one Entry allocation, plus
	// its records if several), seg is its SLRU segment tag, bytes its
	// charged size, and one holds a one-record set's record, RRs = one[:].
	seg        uint8
	bytes      int32
	prev, next *Entry
	one        [1]dnswire.RR
}

// expiresAt is when the entry stops being fresh.
func (e *Entry) expiresAt() time.Time {
	return e.Stored.Add(time.Duration(e.TTL) * time.Second)
}

// Remaining returns the decayed TTL at time now, and false if expired.
func (e *Entry) Remaining(now time.Time) (uint32, bool) {
	elapsed := now.Sub(e.Stored)
	if elapsed < 0 {
		elapsed = 0
	}
	sec := uint32(elapsed / time.Second)
	if sec >= e.TTL {
		return 0, false
	}
	return e.TTL - sec, true
}

// entryIndexOverhead approximates the per-entry bookkeeping bytes beyond
// the records themselves: the map slot, the order-list links, and the
// Entry struct header. A flat constant keeps the accounting deterministic
// across architectures.
const entryIndexOverhead = 96

// entryBytes is the memory charge for e: index overhead plus the
// uncompressed wire size of every record (dnswire.RR.WireSize). Negative
// entries carry no records and cost only the overhead plus their key.
func entryBytes(e *Entry) int32 {
	n := entryIndexOverhead + len(e.Key.Name)
	for i := range e.RRs {
		n += e.RRs[i].WireSize()
	}
	return int32(n)
}

// EntryCharge computes the byte charge an entry with the given key name
// length and record wire sizes would incur — the same arithmetic Put uses
// for resident accounting. The workload compiler uses it to run the Che
// byte fixed point against real MaxBytes bounds without building entries.
func EntryCharge(keyNameLen int, rrWireSizes ...int) int32 {
	n := entryIndexOverhead + keyNameLen
	for _, s := range rrWireSizes {
		n += s
	}
	return int32(n)
}

// Config tunes cache behavior; the zero value is a plain RFC-conformant
// cache with a 1M-entry bound.
type Config struct {
	// MaxTTL caps stored TTLs (0 = no cap). BIND defaults to one week;
	// Google Public DNS effectively caps at 21599 s (§3.3 of the paper).
	MaxTTL uint32
	// ServeStale, when set, lets GetStale return expired entries for up to
	// staleFor after expiry (RFC 8767), used when authoritatives are down.
	ServeStale bool
	// Capacity bounds the entry count; 0 means 1<<20. When the bound is
	// reached, the Eviction policy picks the victim (the zero-value policy
	// is FIFO: oldest-stored first).
	Capacity int
	// MaxBytes bounds the memory charge of resident entries (wire-format
	// record bytes plus index overhead; see Stats.Bytes). 0 means
	// unbounded. Like Capacity, the Eviction policy picks victims when a
	// Put would exceed the bound.
	MaxBytes int64
	// Eviction selects the eviction policy: EvictFIFO (zero value, the
	// legacy oldest-stored-first order), EvictLRU, or EvictSLRU
	// (segmented LRU with TinyLFU admission).
	Eviction EvictionPolicy
}

func (c Config) capacity() int {
	if c.Capacity <= 0 {
		return 1 << 20
	}
	return c.Capacity
}

// staleFor bounds how long past expiry stale data may be served: one day,
// the RFC 8767 suggestion.
const staleFor = 24 * time.Hour

// Store is the cache surface the resolver (and the farm topologies built
// on top of it) depend on. *Cache is the single-lock implementation;
// Sharded spreads the same contract over a hash-partitioned pool so many
// farm frontends can share one logical cache without serializing on one
// mutex.
type Store interface {
	// Put stores an entry (a one-record RRs copied in) under the store's
	// TTL cap and RFC 2181 credibility rules, reporting whether it was kept.
	Put(e Entry) bool
	// Get returns the fresh entry for (name, t) and its remaining TTL.
	Get(name dnswire.Name, t dnswire.Type) (*Entry, uint32, bool)
	// GetStale is Get extended with the RFC 8767 serve-stale window.
	GetStale(name dnswire.Name, t dnswire.Type) (*Entry, uint32, bool)
	// Remove deletes the entry for (name, t), reporting whether it existed.
	Remove(name dnswire.Name, t dnswire.Type) bool
	// PurgeGlueOf removes every entry cached as glue for the NS owner.
	PurgeGlueOf(nsOwner dnswire.Name) int
	// Flush empties the store.
	Flush()
	// Len counts entries, expired ones included.
	Len() int
	// Stats snapshots the hit/miss/eviction counters.
	Stats() Stats
	// Keys lists all cached keys, for inspection.
	Keys() []Key
	// NotePrefetch counts a refresh-ahead prefetch issued on behalf of this
	// store, so prefetch load shows up next to the hit/miss counters it
	// protects.
	NotePrefetch()
}

// Cache is a TTL-decaying, credibility-ranked DNS cache.
type Cache struct {
	clock simnet.Clock
	cfg   Config

	mu      sync.Mutex
	entries map[Key]*Entry
	evictor Evictor // eviction order; all calls under mu
	bytes   int64   // resident memory charge, guarded by mu
	// glueIdx maps an NS owner name to the keys cached as glue for it, so
	// PurgeGlueOf touches only the glue records instead of scanning the
	// whole cache.
	glueIdx map[dnswire.Name]map[Key]struct{}

	// Counters are atomic so Stats can be read mid-operation (from a
	// /metrics scrape or a concurrent experiment) without taking the cache
	// lock and without racing the Get/Put paths that bump them.
	hits, misses, evictions, staleHits obs.Counter
	prefetches, admissionRejects       obs.Counter
}

// New creates a cache on the given clock (nil means wall clock).
func New(clock simnet.Clock, cfg Config) *Cache {
	if clock == nil {
		clock = simnet.WallClock{}
	}
	return &Cache{
		clock:   clock,
		cfg:     cfg,
		entries: make(map[Key]*Entry),
		evictor: newEvictor(cfg.Eviction, cfg.capacity()),
		glueIdx: make(map[dnswire.Name]map[Key]struct{}),
	}
}

// removeLocked unlinks e from every internal structure.
func (c *Cache) removeLocked(e *Entry) {
	c.evictor.Remove(e)
	delete(c.entries, e.Key)
	c.bytes -= int64(e.bytes)
	if e.GlueOf != "" {
		if keys := c.glueIdx[e.GlueOf]; keys != nil {
			delete(keys, e.Key)
			if len(keys) == 0 {
				delete(c.glueIdx, e.GlueOf)
			}
		}
	}
}

// indexGlueLocked records e's key under its GlueOf owner, if any.
func (c *Cache) indexGlueLocked(e *Entry) {
	if e.GlueOf == "" {
		return
	}
	keys := c.glueIdx[e.GlueOf]
	if keys == nil {
		keys = make(map[Key]struct{})
		c.glueIdx[e.GlueOf] = keys
	}
	keys[e.Key] = struct{}{}
}

// Stats reports cache counters.
type Stats struct {
	Hits, Misses, Evictions, StaleHits uint64
	Entries                            int
	// Bytes is the resident memory charge: wire-format record bytes plus
	// per-entry index overhead.
	Bytes int64
	// Prefetches counts refresh-ahead re-resolutions issued for entries in
	// this store (see Store.NotePrefetch).
	Prefetches uint64
	// AdmissionRejects counts Puts turned away at the bound because the
	// admission filter judged the candidate less popular than the victim
	// (SLRU/TinyLFU only).
	AdmissionRejects uint64
}

// Add accumulates o into s — how a pool of stores reports as one.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.StaleHits += o.StaleHits
	s.Entries += o.Entries
	s.Bytes += o.Bytes
	s.Prefetches += o.Prefetches
	s.AdmissionRejects += o.AdmissionRejects
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries := len(c.entries)
	bytes := c.bytes
	c.mu.Unlock()
	return Stats{
		Hits: c.hits.Value(), Misses: c.misses.Value(), Evictions: c.evictions.Value(),
		StaleHits: c.staleHits.Value(), Entries: entries, Bytes: bytes,
		Prefetches: c.prefetches.Value(), AdmissionRejects: c.admissionRejects.Value(),
	}
}

// NotePrefetch counts one refresh-ahead prefetch against this cache.
func (c *Cache) NotePrefetch() { c.prefetches.Inc() }

// Metric names under which Instrument publishes a store's Stats: six counts
// and two levels.
const (
	MetricHits             = "cache.hits"
	MetricMisses           = "cache.misses"
	MetricEvictions        = "cache.evictions"
	MetricStaleHits        = "cache.stale_hits"
	MetricPrefetches       = "cache.prefetches"
	MetricAdmissionRejects = "cache.admission_rejects"
	MetricEntries          = "cache.entries"
	MetricBytes            = "cache.bytes"
)

// Instrument publishes stats in reg: the counts as counters, Entries and
// Bytes as gauges. stats is called at scrape time, so one registration
// follows the live state of any Store — a single cache, a sharded pool, or
// a farm's fleet aggregate. A nil registry is a no-op.
func Instrument(reg *obs.Registry, stats func() Stats) {
	reg.CounterFunc(MetricHits, func() uint64 { return stats().Hits })
	reg.CounterFunc(MetricMisses, func() uint64 { return stats().Misses })
	reg.CounterFunc(MetricEvictions, func() uint64 { return stats().Evictions })
	reg.CounterFunc(MetricStaleHits, func() uint64 { return stats().StaleHits })
	reg.CounterFunc(MetricPrefetches, func() uint64 { return stats().Prefetches })
	reg.CounterFunc(MetricAdmissionRejects, func() uint64 { return stats().AdmissionRejects })
	reg.GaugeFunc(MetricEntries, func() float64 { return float64(stats().Entries) })
	reg.GaugeFunc(MetricBytes, func() float64 { return float64(stats().Bytes) })
}

// Len returns the number of entries, expired ones included.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Put stores e, applying the TTL cap, and returns whether the entry was
// stored. An unexpired existing entry with higher credibility wins over the
// new data (RFC 2181 §5.4.1); equal or higher credibility replaces. Under a
// Capacity or MaxBytes bound, an SLRU admission filter may also turn away a
// new key it judges less popular than the eviction victim.
func (c *Cache) Put(e Entry) bool {
	now := c.clock.Now()
	if e.Stored.IsZero() {
		e.Stored = now
	}
	if c.cfg.MaxTTL > 0 && e.TTL > c.cfg.MaxTTL {
		e.TTL = c.cfg.MaxTTL
	}
	e.prev, e.next, e.seg = nil, nil, 0
	if len(e.RRs) == 1 {
		e.one[0] = e.RRs[0]
		e.RRs = e.one[:]
	}
	e.bytes = entryBytes(&e)
	c.mu.Lock()
	defer c.mu.Unlock()
	resident := false
	if old, ok := c.entries[e.Key]; ok {
		if _, fresh := old.Remaining(now); fresh && old.Cred > e.Cred {
			return false
		}
		c.removeLocked(old)
		resident = true
	}
	// A key that was already resident skips the admission filter: it has
	// paid its way in, and its replacement does not grow the entry count.
	if !c.evictToFitLocked(&e, !resident, now) {
		return false
	}
	c.entries[e.Key] = &e
	c.evictor.Push(&e)
	c.bytes += int64(e.bytes)
	c.indexGlueLocked(&e)
	return true
}

// evictToFitLocked makes room for cand, evicting victims in policy order
// until both the entry-count and byte bounds hold. It reports false when
// cand cannot be stored at all: it alone exceeds MaxBytes, or the policy's
// admission filter prefers the current victim (checked once, against the
// first fresh victim, per TinyLFU — an expired victim carries no value
// worth defending, so it is evicted without a vote).
func (c *Cache) evictToFitLocked(cand *Entry, admit bool, now time.Time) bool {
	if c.cfg.MaxBytes > 0 && int64(cand.bytes) > c.cfg.MaxBytes {
		return false
	}
	admissionChecked := !admit
	for len(c.entries) >= c.cfg.capacity() ||
		(c.cfg.MaxBytes > 0 && c.bytes+int64(cand.bytes) > c.cfg.MaxBytes) {
		victim := c.evictor.Victim()
		if victim == nil {
			return true
		}
		if !admissionChecked {
			if _, fresh := victim.Remaining(now); fresh {
				admissionChecked = true
				if !c.evictor.Admit(cand.Key, victim) {
					c.admissionRejects.Inc()
					return false
				}
			}
		}
		c.removeLocked(victim)
		c.evictions.Inc()
	}
	return true
}

// Get returns the fresh entry for (name, t) and its remaining TTL.
func (c *Cache) Get(name dnswire.Name, t dnswire.Type) (*Entry, uint32, bool) {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(Key{Name: name, Type: t}, now)
}

func (c *Cache) getLocked(k Key, now time.Time) (*Entry, uint32, bool) {
	c.evictor.Record(k)
	e, ok := c.entries[k]
	if !ok {
		c.misses.Inc()
		return nil, 0, false
	}
	rem, fresh := e.Remaining(now)
	if !fresh {
		c.misses.Inc()
		return nil, 0, false
	}
	c.evictor.Touch(e)
	c.hits.Inc()
	return e, rem, true
}

// GetStale returns the entry even if expired, provided serve-stale is on
// and the entry expired no more than staleFor ago. The returned TTL for a
// stale entry is the RFC 8767 recommendation of 30 s.
func (c *Cache) GetStale(name dnswire.Name, t dnswire.Type) (*Entry, uint32, bool) {
	now := c.clock.Now()
	k := Key{Name: name, Type: t}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, rem, ok := c.getLocked(k, now); ok {
		return e, rem, true
	}
	if !c.cfg.ServeStale {
		return nil, 0, false
	}
	e, ok := c.entries[k]
	if !ok {
		return nil, 0, false
	}
	if now.Sub(e.expiresAt()) > staleFor {
		return nil, 0, false
	}
	c.staleHits.Inc()
	return e, 30, true
}

// Remove deletes the entry for (name, t), reporting whether it existed.
func (c *Cache) Remove(name dnswire.Name, t dnswire.Type) bool {
	k := Key{Name: name, Type: t}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return false
	}
	c.removeLocked(e)
	return true
}

// PurgeGlueOf removes every entry cached as glue for the given NS owner.
// Resolvers with coupled NS/A lifetimes (§4.2 of the paper: in-bailiwick
// servers) call this when the covering NS set expires or is refreshed.
func (c *Cache) PurgeGlueOf(nsOwner dnswire.Name) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.glueIdx[nsOwner]
	n := len(keys)
	for k := range keys {
		// removeLocked mutates the index set; entries lookup stays valid.
		c.removeLocked(c.entries[k])
	}
	return n
}

// Flush empties the cache.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[Key]*Entry)
	c.evictor.Reset()
	c.bytes = 0
	c.glueIdx = make(map[dnswire.Name]map[Key]struct{})
}

// Keys returns all cached keys (expired included) in eviction order (next
// victim first), for inspection in tests and experiments.
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Key, 0, len(c.entries))
	c.evictor.Walk(func(e *Entry) { out = append(out, e.Key) })
	return out
}
