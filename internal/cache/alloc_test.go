package cache

import (
	"fmt"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/race"
	"dnsttl/internal/simnet"
)

// TestGetHitAllocFree pins the cache-hit fast path to zero allocations: a
// hit is a map lookup plus TTL arithmetic, nothing more.
func TestGetHitAllocFree(t *testing.T) {
	c := New(simnet.NewVirtualClock(), Config{})
	n := dnswire.NewName("www.example.org")
	c.Put(Entry{
		Key:  Key{Name: n, Type: dnswire.TypeA},
		RRs:  []dnswire.RR{dnswire.NewA(string(n), 300, "192.0.2.1")},
		TTL:  300,
		Cred: CredAnswerAuth,
	})
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := c.Get(n, dnswire.TypeA); !ok {
			t.Fatal("miss")
		}
	})
	if allocs >= 0.5 {
		t.Errorf("cache hit: %.2f allocs/op, want 0", allocs)
	}
}

// TestPutNewAllocs pins what storing a new RRset costs: the caller's record
// slice and the Entry — the order list is intrusive, so linking the entry in
// allocates nothing, under any eviction policy.
func TestPutNewAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are pinned without -race")
	}
	const runs = 200
	names := make([]dnswire.Name, runs+1)
	for i := range names {
		names[i] = dnswire.NewName(fmt.Sprintf("h%04d.example.org", i))
	}
	rr := dnswire.NewA("www.example.org", 300, "192.0.2.1")
	for _, p := range []EvictionPolicy{EvictFIFO, EvictLRU, EvictSLRU} {
		c := New(simnet.NewVirtualClock(), Config{Eviction: p})
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			rr.Name = names[next]
			next++
			if !c.Put(Entry{Key: Key{Name: rr.Name, Type: dnswire.TypeA}, RRs: []dnswire.RR{rr}, TTL: 300, Cred: CredAnswerAuth}) {
				t.Fatal("Put refused a new key")
			}
		})
		if allocs > 2 {
			t.Errorf("%s: Put of a new RRset costs %.1f allocs/op, want at most 2", p, allocs)
		}
	}
}
