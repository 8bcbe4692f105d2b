package cache

import (
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// Sharded is a hash-partitioned pool of independent Caches presenting one
// logical Store. Each shard carries its own lock, so frontends of a
// resolver farm sharing the pool contend only when they touch the same
// shard — the "sharded cache" topology large public resolvers deploy
// between a fully private and a fully shared design.
//
// A key always maps to the same shard (KeyHash modulo the pool size), so credibility ranking, negative caching, and TTL decay behave
// exactly as they would in a single Cache.
type Sharded struct {
	shards []*Cache
	// prefetches counts refresh-ahead prefetches noted against the pool as
	// a whole; a prefetch protects a key, not a shard, so the pool keeps
	// one counter instead of attributing to shards.
	prefetches obs.Counter
}

// NewSharded builds a pool of n shards on the given clock, each configured
// with cfg. Capacity and MaxBytes in cfg are per shard. n < 1 is treated
// as 1.
func NewSharded(clock simnet.Clock, cfg Config, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]*Cache, n)}
	for i := range s.shards {
		s.shards[i] = New(clock, cfg)
	}
	return s
}

// KeyHash is the cache's one key hash: FNV-1a over the owner name plus the
// type, allocation-free. It places keys on shards and counts them in the
// SLRU frequency sketch.
func KeyHash(name dnswire.Name, t dnswire.Type) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	h = (h ^ uint64(t>>8)) * 1099511628211
	h = (h ^ uint64(t&0xff)) * 1099511628211
	return h
}

// NumShards returns the pool size.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard exposes shard i for telemetry.
func (s *Sharded) Shard(i int) *Cache { return s.shards[i] }

func (s *Sharded) shardFor(name dnswire.Name, t dnswire.Type) *Cache {
	return s.shards[KeyHash(name, t)%uint64(len(s.shards))]
}

// Put stores e in the shard owning e.Key.
func (s *Sharded) Put(e Entry) bool {
	return s.shardFor(e.Key.Name, e.Key.Type).Put(e)
}

// Get returns the fresh entry for (name, t) from its shard.
func (s *Sharded) Get(name dnswire.Name, t dnswire.Type) (*Entry, uint32, bool) {
	return s.shardFor(name, t).Get(name, t)
}

// GetStale is Get extended with the serve-stale window.
func (s *Sharded) GetStale(name dnswire.Name, t dnswire.Type) (*Entry, uint32, bool) {
	return s.shardFor(name, t).GetStale(name, t)
}

// Remove deletes (name, t) from its shard.
func (s *Sharded) Remove(name dnswire.Name, t dnswire.Type) bool {
	return s.shardFor(name, t).Remove(name, t)
}

// PurgeGlueOf sweeps every shard for glue of the given NS owner.
func (s *Sharded) PurgeGlueOf(nsOwner dnswire.Name) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.PurgeGlueOf(nsOwner)
	}
	return n
}

// Flush empties every shard.
func (s *Sharded) Flush() {
	for _, sh := range s.shards {
		sh.Flush()
	}
}

// Len counts entries across shards, expired ones included.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Stats aggregates the counters of every shard, plus the pool-level
// prefetch count.
func (s *Sharded) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		out.Add(sh.Stats())
	}
	out.Prefetches += s.prefetches.Value()
	return out
}

// NotePrefetch counts one refresh-ahead prefetch against the pool.
func (s *Sharded) NotePrefetch() { s.prefetches.Inc() }

// Keys lists cached keys shard by shard.
func (s *Sharded) Keys() []Key {
	var out []Key
	for _, sh := range s.shards {
		out = append(out, sh.Keys()...)
	}
	return out
}

var (
	_ Store = (*Cache)(nil)
	_ Store = (*Sharded)(nil)
)
