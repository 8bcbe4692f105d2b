package cache

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

func TestShardedRoundTrip(t *testing.T) {
	clk := simnet.NewVirtualClock()
	s := NewSharded(clk, Config{}, 8)

	names := make([]dnswire.Name, 50)
	for i := range names {
		names[i] = dnswire.NewName(fmt.Sprintf("w%02d.example.org", i))
		s.Put(entry(string(names[i]), dnswire.TypeA, 300, CredAnswerAuth))
	}
	for _, n := range names {
		if _, rem, ok := s.Get(n, dnswire.TypeA); !ok || rem != 300 {
			t.Fatalf("%s: rem=%d ok=%v", n, rem, ok)
		}
	}
	if s.Len() != len(names) {
		t.Errorf("Len = %d, want %d", s.Len(), len(names))
	}
	if got := len(s.Keys()); got != len(names) {
		t.Errorf("Keys = %d, want %d", got, len(names))
	}

	// Keys must spread across shards, and a key must always live on the
	// same shard (same data visible through Get after TTL decay).
	occupied := 0
	for i := 0; i < s.NumShards(); i++ {
		if s.Shard(i).Len() > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Errorf("50 keys occupy %d shard(s); hashing is degenerate", occupied)
	}

	clk.Advance(301 * time.Second)
	for _, n := range names {
		if _, _, ok := s.Get(n, dnswire.TypeA); ok {
			t.Fatalf("%s: expired entry still served", n)
		}
	}
}

func TestShardedCredibilityAndRemove(t *testing.T) {
	s := NewSharded(simnet.NewVirtualClock(), Config{}, 4)
	s.Put(entry("nic.uy", dnswire.TypeA, 300, CredAnswerAuth))
	if s.Put(entry("nic.uy", dnswire.TypeA, 172800, CredAdditional)) {
		t.Error("glue replaced unexpired authoritative data across the pool")
	}
	if !s.Remove(dnswire.NewName("nic.uy"), dnswire.TypeA) {
		t.Error("Remove missed the owning shard")
	}
	if _, _, ok := s.Get(dnswire.NewName("nic.uy"), dnswire.TypeA); ok {
		t.Error("entry survived Remove")
	}
}

func TestShardedStatsAggregateAndFlush(t *testing.T) {
	clk := simnet.NewVirtualClock()
	s := NewSharded(clk, Config{ServeStale: true}, 4)
	for i := 0; i < 20; i++ {
		n := fmt.Sprintf("x%d.org", i)
		s.Put(entry(n, dnswire.TypeA, 60, CredAnswerAuth))
		s.Get(dnswire.NewName(n), dnswire.TypeA)    // hit
		s.Get(dnswire.NewName(n), dnswire.TypeAAAA) // miss
	}
	st := s.Stats()
	if st.Hits != 20 || st.Misses != 20 || st.Entries != 20 {
		t.Errorf("aggregate stats = %+v", st)
	}
	clk.Advance(90 * time.Second)
	if _, rem, ok := s.GetStale(dnswire.NewName("x0.org"), dnswire.TypeA); !ok || rem != 30 {
		t.Errorf("sharded GetStale: rem=%d ok=%v", rem, ok)
	}
	s.Flush()
	if s.Len() != 0 {
		t.Errorf("Len after Flush = %d", s.Len())
	}
}

func TestShardedPurgeGlueOf(t *testing.T) {
	s := NewSharded(simnet.NewVirtualClock(), Config{}, 4)
	owner := dnswire.NewName("sub.example.org")
	for i := 0; i < 6; i++ {
		e := entry(fmt.Sprintf("ns%d.sub.example.org", i), dnswire.TypeA, 7200, CredAdditional)
		e.GlueOf = owner
		s.Put(e)
	}
	s.Put(entry("unrelated.org", dnswire.TypeA, 7200, CredAdditional))
	if n := s.PurgeGlueOf(owner); n != 6 {
		t.Errorf("PurgeGlueOf = %d, want 6", n)
	}
	if s.Len() != 1 {
		t.Errorf("Len after purge = %d, want the unrelated entry only", s.Len())
	}
}

func TestKeyHashStable(t *testing.T) {
	a := KeyHash(dnswire.NewName("www.example.org"), dnswire.TypeA)
	b := KeyHash(dnswire.NewName("www.example.org"), dnswire.TypeA)
	if a != b {
		t.Error("KeyHash not deterministic")
	}
	if KeyHash(dnswire.NewName("www.example.org"), dnswire.TypeA) ==
		KeyHash(dnswire.NewName("www.example.org"), dnswire.TypeAAAA) {
		t.Error("KeyHash ignores the type")
	}
}

// TestKeyHashIsFNV1a pins KeyHash to hash/fnv's FNV-1a over the name and
// the big-endian type, so shard placement and the SLRU sketch never move.
func TestKeyHashIsFNV1a(t *testing.T) {
	for _, k := range []Key{
		{Name: dnswire.Root, Type: dnswire.TypeNS},
		{Name: dnswire.NewName("www.example.org"), Type: dnswire.TypeA},
		{Name: dnswire.NewName("frontend-3/vnode-17"), Type: 0},
		{Name: dnswire.NewName("x.y"), Type: dnswire.Type(0xabcd)},
	} {
		h := fnv.New64a()
		h.Write([]byte(k.Name))
		h.Write([]byte{byte(k.Type >> 8), byte(k.Type)})
		if got, want := KeyHash(k.Name, k.Type), h.Sum64(); got != want {
			t.Errorf("KeyHash(%s, %d) = %#x, hash/fnv says %#x", k.Name, k.Type, got, want)
		}
	}
	k := dnswire.NewName("www.example.org")
	if allocs := testing.AllocsPerRun(100, func() { KeyHash(k, dnswire.TypeA) }); allocs != 0 {
		t.Errorf("KeyHash: %.1f allocs/op, want 0", allocs)
	}
}
