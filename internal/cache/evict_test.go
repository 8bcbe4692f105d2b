package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

func evictOrder(c *Cache) []string {
	var names []string
	for _, k := range c.Keys() {
		names = append(names, string(k.Name))
	}
	return names
}

// TestLRURecencyOrder pins the LRU contract: a hit moves the entry to the
// safe end of the eviction order, so under pressure the victims are exactly
// the least-recently-used keys, in recency order.
func TestLRURecencyOrder(t *testing.T) {
	clk := simnet.NewVirtualClock()
	c := New(clk, Config{Capacity: 4, Eviction: EvictLRU})
	for _, n := range []string{"a.", "b.", "c.", "d."} {
		c.Put(entry(n, dnswire.TypeA, 300, CredAnswerAuth))
	}
	// Touch a and c: eviction order must now be b, d, a, c.
	c.Get(dnswire.NewName("a."), dnswire.TypeA)
	c.Get(dnswire.NewName("c."), dnswire.TypeA)
	if got := evictOrder(c); fmt.Sprint(got) != "[b. d. a. c.]" {
		t.Fatalf("order after touches = %v, want [b. d. a. c.]", got)
	}

	// Two inserts over capacity must evict b then d — never the touched keys.
	c.Put(entry("e.", dnswire.TypeA, 300, CredAnswerAuth))
	c.Put(entry("f.", dnswire.TypeA, 300, CredAnswerAuth))
	for _, n := range []string{"a.", "c.", "e.", "f."} {
		if _, _, ok := c.Get(dnswire.NewName(n), dnswire.TypeA); !ok {
			t.Errorf("touched/new key %s was evicted", n)
		}
	}
	for _, n := range []string{"b.", "d."} {
		if _, _, ok := c.Get(dnswire.NewName(n), dnswire.TypeA); ok {
			t.Errorf("LRU victim %s still resident", n)
		}
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
}

// TestFIFOIgnoresRecency is the contrast case: under the legacy policy the
// same touch pattern changes nothing, and insertion order picks the victims.
func TestFIFOIgnoresRecency(t *testing.T) {
	clk := simnet.NewVirtualClock()
	c := New(clk, Config{Capacity: 4})
	for _, n := range []string{"a.", "b.", "c.", "d."} {
		c.Put(entry(n, dnswire.TypeA, 300, CredAnswerAuth))
	}
	c.Get(dnswire.NewName("a."), dnswire.TypeA)
	c.Get(dnswire.NewName("c."), dnswire.TypeA)
	c.Put(entry("e.", dnswire.TypeA, 300, CredAnswerAuth))
	if _, _, ok := c.Get(dnswire.NewName("a."), dnswire.TypeA); ok {
		t.Error("FIFO must evict a. (oldest stored) despite its recent hit")
	}
}

// TestByteBoundNeverExceeded drives a byte-bounded cache with entries of
// random sizes and checks, after every operation, that the resident total
// matches the per-entry accounting and never exceeds MaxBytes.
func TestByteBoundNeverExceeded(t *testing.T) {
	for _, p := range []EvictionPolicy{EvictFIFO, EvictLRU, EvictSLRU} {
		t.Run(p.String(), func(t *testing.T) {
			clk := simnet.NewVirtualClock()
			const bound = 8 << 10
			c := New(clk, Config{MaxBytes: bound, Capacity: 128, Eviction: p})
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 4000; i++ {
				name := fmt.Sprintf("%0*d.example.org", 1+rng.Intn(40), rng.Intn(300))
				e := entry(name, dnswire.TypeA, uint32(1+rng.Intn(200)), CredAnswerAuth)
				for j := rng.Intn(4); j > 0; j-- { // up to 4 extra RRs per set
					e.RRs = append(e.RRs, dnswire.NewA(name, e.TTL, "192.0.2.2"))
				}
				c.Put(e)
				if rng.Intn(4) == 0 {
					c.Get(dnswire.NewName(name), dnswire.TypeA)
				}
				if rng.Intn(16) == 0 {
					clk.Advance(time.Duration(rng.Intn(30)) * time.Second)
				}
				if got := c.Stats().Bytes; got > bound {
					t.Fatalf("op %d: resident bytes %d exceed bound %d", i, got, bound)
				}
			}
			// The tracked total must equal the sum over resident entries.
			var sum int64
			c.mu.Lock()
			for _, e := range c.entries {
				sum += int64(e.bytes)
			}
			c.mu.Unlock()
			if got := c.Stats().Bytes; got != sum {
				t.Errorf("tracked bytes %d != per-entry sum %d", got, sum)
			}
		})
	}
}

// TestOversizedEntryRejected: an entry larger than the whole bound must be
// refused outright instead of flushing the cache to make room it can never
// have.
func TestOversizedEntryRejected(t *testing.T) {
	clk := simnet.NewVirtualClock()
	c := New(clk, Config{MaxBytes: 256, Eviction: EvictLRU})
	c.Put(entry("small.example.org", dnswire.TypeA, 300, CredAnswerAuth))
	big := entry("big.example.org", dnswire.TypeTXT, 300, CredAnswerAuth)
	big.RRs = []dnswire.RR{dnswire.NewTXT("big.example.org", 300, string(make([]byte, 200)))}
	if c.Put(big) {
		t.Fatal("entry larger than MaxBytes was admitted")
	}
	if _, _, ok := c.Get(dnswire.NewName("small.example.org"), dnswire.TypeA); !ok {
		t.Error("resident entry was evicted for an unstorable candidate")
	}
}

// TestDoorkeeperAdmission exercises the TinyLFU gate end to end: a
// never-seen key cannot displace a warm victim, repeated sightings walk it
// through the doorkeeper and the sketch, and once its estimate beats the
// victim's the same Put succeeds.
func TestDoorkeeperAdmission(t *testing.T) {
	clk := simnet.NewVirtualClock()
	c := New(clk, Config{Capacity: 4, Eviction: EvictSLRU})
	warm := []string{"w1.example.org", "w2.example.org", "w3.example.org", "w4.example.org"}
	for _, n := range warm {
		c.Put(entry(n, dnswire.TypeA, 3600, CredAnswerAuth))
	}
	// Two hits each: first sighting arms the doorkeeper, the second feeds
	// the sketch — every resident now has estimate 2.
	for i := 0; i < 2; i++ {
		for _, n := range warm {
			c.Get(dnswire.NewName(n), dnswire.TypeA)
		}
	}

	cold := entry("cold.example.org", dnswire.TypeA, 3600, CredAnswerAuth)
	if c.Put(cold) {
		t.Fatal("one-hit wonder displaced a warm entry")
	}
	st := c.Stats()
	if st.AdmissionRejects == 0 {
		t.Fatal("rejection not counted in AdmissionRejects")
	}
	if st.Entries != 4 {
		t.Fatalf("entries = %d after rejected Put, want 4", st.Entries)
	}

	// Four lookups push the cold key's estimate past the victims' 2.
	for i := 0; i < 4; i++ {
		c.Get(dnswire.NewName("cold.example.org"), dnswire.TypeA)
	}
	if !c.Put(cold) {
		t.Fatal("frequently requested key still rejected")
	}
	if _, _, ok := c.Get(dnswire.NewName("cold.example.org"), dnswire.TypeA); !ok {
		t.Error("admitted key not resident")
	}
}

// TestAdmissionSkipsExpiredVictim: the filter only defends victims that are
// still alive. Once the resident set has expired, even an estimate-0 key
// must get in — expired entries have nothing left to protect.
func TestAdmissionSkipsExpiredVictim(t *testing.T) {
	clk := simnet.NewVirtualClock()
	c := New(clk, Config{Capacity: 2, Eviction: EvictSLRU})
	c.Put(entry("w1.example.org", dnswire.TypeA, 30, CredAnswerAuth))
	c.Put(entry("w2.example.org", dnswire.TypeA, 30, CredAnswerAuth))
	for i := 0; i < 3; i++ {
		c.Get(dnswire.NewName("w1.example.org"), dnswire.TypeA)
		c.Get(dnswire.NewName("w2.example.org"), dnswire.TypeA)
	}
	clk.Advance(31 * time.Second)
	if !c.Put(entry("cold.example.org", dnswire.TypeA, 30, CredAnswerAuth)) {
		t.Fatal("admission filter defended an expired victim")
	}
}

// TestGetHitAllocFreeLRU pins the recency-maintained hit path to zero
// allocations: under LRU a hit is the FIFO hit plus a MoveToBack, which
// must not allocate.
func TestGetHitAllocFreeLRU(t *testing.T) {
	c := New(simnet.NewVirtualClock(), Config{Eviction: EvictLRU})
	n := dnswire.NewName("www.example.org")
	c.Put(entry("www.example.org", dnswire.TypeA, 300, CredAnswerAuth))
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := c.Get(n, dnswire.TypeA); !ok {
			t.Fatal("miss")
		}
	})
	if allocs >= 0.5 {
		t.Errorf("LRU cache hit: %.2f allocs/op, want 0", allocs)
	}
}

// TestPressureHammer mixes Put, Get, GetStale, Remove, Keys, Flush,
// NotePrefetch, and Stats across goroutines on a byte-bounded cache for
// every policy. Under -race this proves the eviction structures (lists,
// sketch, byte counter) never escape the cache lock.
func TestPressureHammer(t *testing.T) {
	for _, p := range []EvictionPolicy{EvictFIFO, EvictLRU, EvictSLRU} {
		t.Run(p.String(), func(t *testing.T) {
			c := New(simnet.NewVirtualClock(), Config{
				MaxBytes: 16 << 10, Capacity: 128, Eviction: p,
			})
			const goroutines = 8
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 3000; i++ {
						name := fmt.Sprintf("h%03d.example.org", rng.Intn(400))
						switch rng.Intn(8) {
						case 0:
							c.Remove(dnswire.NewName(name), dnswire.TypeA)
						case 1:
							c.GetStale(dnswire.NewName(name), dnswire.TypeA)
						case 2:
							c.NotePrefetch()
							c.Get(dnswire.NewName(name), dnswire.TypeA)
						case 3:
							_ = c.Keys()
						case 4:
							_ = c.Stats()
						default:
							c.Put(entry(name, dnswire.TypeA, uint32(1+rng.Intn(300)), CredAnswerAuth))
							c.Get(dnswire.NewName(name), dnswire.TypeA)
						}
					}
				}(g)
			}
			wg.Wait()
			if got := c.Stats().Bytes; got > 16<<10 {
				t.Errorf("resident bytes %d exceed bound after hammer", got)
			}
			c.Flush()
			if c.Len() != 0 || c.Stats().Bytes != 0 {
				t.Errorf("after flush: %d entries, %d bytes", c.Len(), c.Stats().Bytes)
			}
		})
	}
}
