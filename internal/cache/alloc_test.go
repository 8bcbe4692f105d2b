package cache

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"unsafe"

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

// TestCacheAllocBytesPerEntry pins what a cache holds per one-A entry,
// counting everything the entry keeps alive: its owner string, its boxed
// address, its map slot and the 160 B Entry (a size class exactly) holding
// its 40 B record inline: ≈ 260 B. An Entry plus a separate one-record array
// of 64 B records made it ≈ 290 B.
func TestCacheAllocBytesPerEntry(t *testing.T) {
	if race.Enabled {
		t.Skip("heap accounting is pinned without -race")
	}
	if got := unsafe.Sizeof(Entry{}); got != 160 {
		t.Errorf("an Entry is %d B, want 160, a size class", got)
	}
	if got := unsafe.Sizeof(dnswire.RR{}); got != 40 {
		t.Errorf("a record is %d B, want 40", got)
	}
	const entries = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(simnet.NewVirtualClock(), Config{})
	for i := 0; i < entries; i++ {
		rr := dnswire.RR{Name: dnswire.Name(fmt.Sprintf("n%07d.example.test.", i)), Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 300, Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})}}
		if !c.Put(Entry{Key: Key{Name: rr.Name, Type: rr.Type}, RRs: []dnswire.RR{rr}, TTL: 300, Cred: CredAnswerAuth}) {
			t.Fatal("Put refused a new key")
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / entries
	runtime.KeepAlive(c)
	t.Logf("%.0f B per one-A entry, charged %d", perEntry, c.Stats().Bytes/entries)
	if perEntry > 270 {
		t.Errorf("cache holds %.0f B per one-A entry, want at most 270", perEntry)
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
