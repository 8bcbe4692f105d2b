package cache

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

func entry(name string, t dnswire.Type, ttl uint32, cred Credibility) Entry {
	return Entry{
		Key:  Key{Name: dnswire.NewName(name), Type: t},
		RRs:  []dnswire.RR{dnswire.NewA(name, ttl, "192.0.2.1")},
		TTL:  ttl,
		Cred: cred,
	}
}

func TestPutGetAndDecay(t *testing.T) {
	clk := simnet.NewVirtualClock()
	c := New(clk, Config{})
	c.Put(entry("www.example.org", dnswire.TypeA, 300, CredAnswerAuth))

	e, rem, ok := c.Get(dnswire.NewName("www.example.org"), dnswire.TypeA)
	if !ok || rem != 300 {
		t.Fatalf("fresh get: rem=%d ok=%v", rem, ok)
	}
	if e.Cred != CredAnswerAuth {
		t.Errorf("cred = %v", e.Cred)
	}
	clk.Advance(100 * time.Second)
	if _, rem, ok = c.Get(dnswire.NewName("www.example.org"), dnswire.TypeA); !ok || rem != 200 {
		t.Errorf("after 100s: rem=%d ok=%v, want 200", rem, ok)
	}
	clk.Advance(200 * time.Second)
	if _, _, ok = c.Get(dnswire.NewName("www.example.org"), dnswire.TypeA); ok {
		t.Errorf("entry must expire exactly at TTL")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCredibilityRanking(t *testing.T) {
	clk := simnet.NewVirtualClock()
	c := New(clk, Config{})
	// Child's authoritative answer in cache (TTL 300, the .uy case).
	c.Put(entry("nic.uy", dnswire.TypeA, 300, CredAnswerAuth))
	// Parent glue (TTL 172800) must NOT overwrite it.
	glue := entry("nic.uy", dnswire.TypeA, 172800, CredAdditional)
	if c.Put(glue) {
		t.Errorf("glue must not replace unexpired authoritative data")
	}
	_, rem, _ := c.Get(dnswire.NewName("nic.uy"), dnswire.TypeA)
	if rem != 300 {
		t.Errorf("rem = %d, want the child's 300", rem)
	}
	// Equal credibility replaces.
	if !c.Put(entry("nic.uy", dnswire.TypeA, 120, CredAnswerAuth)) {
		t.Errorf("equal credibility must replace")
	}
	// Once expired, glue may land.
	clk.Advance(1000 * time.Second)
	if !c.Put(glue) {
		t.Errorf("expired entries must not block lower credibility")
	}
	_, rem, ok := c.Get(dnswire.NewName("nic.uy"), dnswire.TypeA)
	if !ok || rem != 172800 {
		t.Errorf("after glue insert: rem=%d ok=%v", rem, ok)
	}
}

func TestCredibilityUpgrade(t *testing.T) {
	c := New(simnet.NewVirtualClock(), Config{})
	c.Put(entry("x.org", dnswire.TypeA, 172800, CredAdditional))
	// Authoritative data replaces glue immediately.
	if !c.Put(entry("x.org", dnswire.TypeA, 60, CredAnswerAuth)) {
		t.Fatalf("authoritative answer must replace glue")
	}
	_, rem, _ := c.Get(dnswire.NewName("x.org"), dnswire.TypeA)
	if rem != 60 {
		t.Errorf("rem = %d, want 60", rem)
	}
}

func TestTTLCapAndFloor(t *testing.T) {
	clk := simnet.NewVirtualClock()
	c := New(clk, Config{MaxTTL: 21599})
	c.Put(entry("big.org", dnswire.TypeNS, 345600, CredAnswerAuth))
	_, rem, _ := c.Get(dnswire.NewName("big.org"), dnswire.TypeNS)
	if rem != 21599 {
		t.Errorf("capped rem = %d, want 21599 (the Google cap from §3.3)", rem)
	}
	c.Put(entry("small.org", dnswire.TypeA, 5, CredAnswerAuth))
	_, rem, _ = c.Get(dnswire.NewName("small.org"), dnswire.TypeA)
	if rem != 5 {
		t.Errorf("short rem = %d, want 5: the cache stores a TTL as served, with no floor", rem)
	}
}

func TestNegativeEntries(t *testing.T) {
	clk := simnet.NewVirtualClock()
	c := New(clk, Config{})
	c.Put(Entry{
		Key:      Key{Name: dnswire.NewName("missing.org"), Type: dnswire.TypeA},
		TTL:      300,
		Cred:     CredAnswerAuth,
		Negative: NegNXDomain,
	})
	e, _, ok := c.Get(dnswire.NewName("missing.org"), dnswire.TypeA)
	if !ok || e.Negative != NegNXDomain {
		t.Errorf("negative entry: %+v ok=%v", e, ok)
	}
	clk.Advance(301 * time.Second)
	if _, _, ok := c.Get(dnswire.NewName("missing.org"), dnswire.TypeA); ok {
		t.Errorf("negative entry must expire")
	}
}

func TestServeStale(t *testing.T) {
	clk := simnet.NewVirtualClock()
	c := New(clk, Config{ServeStale: true})
	c.Put(entry("stale.org", dnswire.TypeA, 60, CredAnswerAuth))
	clk.Advance(120 * time.Second)
	if _, _, ok := c.Get(dnswire.NewName("stale.org"), dnswire.TypeA); ok {
		t.Fatalf("Get must not return expired data")
	}
	e, rem, ok := c.GetStale(dnswire.NewName("stale.org"), dnswire.TypeA)
	if !ok || rem != 30 {
		t.Fatalf("GetStale: rem=%d ok=%v", rem, ok)
	}
	if e.Key.Name != dnswire.NewName("stale.org") {
		t.Errorf("wrong entry")
	}
	clk.Advance(staleFor)
	if _, _, ok := c.GetStale(dnswire.NewName("stale.org"), dnswire.TypeA); ok {
		t.Errorf("stale window exceeded, must miss")
	}
	if st := c.Stats(); st.StaleHits != 1 {
		t.Errorf("StaleHits = %d", st.StaleHits)
	}
}

func TestServeStaleDisabled(t *testing.T) {
	clk := simnet.NewVirtualClock()
	c := New(clk, Config{})
	c.Put(entry("x.org", dnswire.TypeA, 60, CredAnswerAuth))
	clk.Advance(2 * time.Minute)
	if _, _, ok := c.GetStale(dnswire.NewName("x.org"), dnswire.TypeA); ok {
		t.Errorf("GetStale must respect ServeStale=false")
	}
	// But fresh data still flows through GetStale.
	c.Put(entry("y.org", dnswire.TypeA, 600, CredAnswerAuth))
	if _, rem, ok := c.GetStale(dnswire.NewName("y.org"), dnswire.TypeA); !ok || rem != 600 {
		t.Errorf("GetStale on fresh entry: rem=%d ok=%v", rem, ok)
	}
}

func TestPurgeGlueOf(t *testing.T) {
	c := New(simnet.NewVirtualClock(), Config{})
	g1 := entry("ns1.sub.example.org", dnswire.TypeA, 7200, CredAdditional)
	g1.GlueOf = dnswire.NewName("sub.example.org")
	g2 := entry("ns2.sub.example.org", dnswire.TypeA, 7200, CredAdditional)
	g2.GlueOf = dnswire.NewName("sub.example.org")
	other := entry("ns1.other.org", dnswire.TypeA, 7200, CredAdditional)
	c.Put(g1)
	c.Put(g2)
	c.Put(other)
	if n := c.PurgeGlueOf(dnswire.NewName("sub.example.org")); n != 2 {
		t.Fatalf("purged %d, want 2", n)
	}
	if _, _, ok := c.Get(dnswire.NewName("ns1.sub.example.org"), dnswire.TypeA); ok {
		t.Errorf("glue should be gone")
	}
	if _, _, ok := c.Get(dnswire.NewName("ns1.other.org"), dnswire.TypeA); !ok {
		t.Errorf("unrelated entry purged")
	}
}

func TestEvictionFIFO(t *testing.T) {
	c := New(simnet.NewVirtualClock(), Config{Capacity: 3})
	for i := 0; i < 5; i++ {
		c.Put(entry(fmt.Sprintf("n%d.org", i), dnswire.TypeA, 600, CredAnswerAuth))
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if _, _, ok := c.Get(dnswire.NewName("n0.org"), dnswire.TypeA); ok {
		t.Errorf("oldest entry should be evicted")
	}
	if _, _, ok := c.Get(dnswire.NewName("n4.org"), dnswire.TypeA); !ok {
		t.Errorf("newest entry should remain")
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

func TestRemoveAndFlushAndKeys(t *testing.T) {
	c := New(simnet.NewVirtualClock(), Config{})
	c.Put(entry("a.org", dnswire.TypeA, 60, CredAnswerAuth))
	c.Put(entry("b.org", dnswire.TypeA, 60, CredAnswerAuth))
	if ks := c.Keys(); len(ks) != 2 || ks[0].Name != dnswire.NewName("a.org") {
		t.Errorf("Keys = %v", ks)
	}
	if !c.Remove(dnswire.NewName("a.org"), dnswire.TypeA) {
		t.Errorf("Remove existing = false")
	}
	if c.Remove(dnswire.NewName("a.org"), dnswire.TypeA) {
		t.Errorf("Remove missing = true")
	}
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("Flush left %d entries", c.Len())
	}
}

func TestRemainingBoundary(t *testing.T) {
	clk := simnet.NewVirtualClock()
	e := Entry{TTL: 10, Stored: clk.Now()}
	if rem, ok := e.Remaining(clk.Now()); !ok || rem != 10 {
		t.Errorf("t=0: %d %v", rem, ok)
	}
	if rem, ok := e.Remaining(clk.Now().Add(9 * time.Second)); !ok || rem != 1 {
		t.Errorf("t=9: %d %v", rem, ok)
	}
	if _, ok := e.Remaining(clk.Now().Add(10 * time.Second)); ok {
		t.Errorf("t=TTL must be expired")
	}
	// Clock skew (stored in the future) must not underflow.
	if rem, ok := e.Remaining(clk.Now().Add(-time.Hour)); !ok || rem != 10 {
		t.Errorf("future-stored entry: %d %v", rem, ok)
	}
}

func TestCredibilityStrings(t *testing.T) {
	for c, want := range map[Credibility]string{
		CredAdditional:        "additional",
		CredAuthorityReferral: "authority-referral",
		CredAuthorityAuth:     "authority-auth",
		CredAnswerNonAuth:     "answer-nonauth",
		CredAnswerAuth:        "answer-auth",
		Credibility(0):        "none",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

// TestEvictionPolicyText pins the -eviction spelling table: every policy
// round-trips through MarshalText/UnmarshalText and String agrees, a retired
// alias fails naming the accepted spellings, and an out-of-range policy
// prints as itself rather than as FIFO.
func TestEvictionPolicyText(t *testing.T) {
	for _, p := range []EvictionPolicy{EvictFIFO, EvictLRU, EvictSLRU} {
		b, err := p.MarshalText()
		var got EvictionPolicy
		if err != nil || got.UnmarshalText(b) != nil || got != p || string(b) != p.String() {
			t.Errorf("%v: MarshalText = %q, %v; back %v", p, b, err, got)
		}
	}
	for _, in := range []string{"tinylfu", "", "LRU", "arc"} {
		var p EvictionPolicy
		if err := p.UnmarshalText([]byte(in)); err == nil || !strings.Contains(err.Error(), `"fifo" "lru" "slru"`) {
			t.Errorf("UnmarshalText(%q) = %v, want an error naming the spellings", in, err)
		}
	}
	if got := EvictionPolicy(7).String(); got != "EvictionPolicy(7)" {
		t.Errorf("EvictionPolicy(7).String() = %q", got)
	}
}

// TestQuickDecayMonotonic: remaining TTL never increases as time advances,
// and an entry reports expired exactly from TTL seconds onward.
func TestQuickDecayMonotonic(t *testing.T) {
	f := func(ttl uint16, steps []uint8) bool {
		clk := simnet.NewVirtualClock()
		e := Entry{TTL: uint32(ttl), Stored: clk.Now()}
		prev := uint32(ttl)
		elapsed := uint64(0)
		for _, s := range steps {
			clk.Advance(time.Duration(s) * time.Second)
			elapsed += uint64(s)
			rem, ok := e.Remaining(clk.Now())
			if ok {
				if elapsed >= uint64(ttl) {
					return false // should be expired
				}
				if rem > prev {
					return false // never increases
				}
				prev = rem
			} else if elapsed < uint64(ttl) {
				return false // expired too early
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickCredibilityInvariant: after any Put sequence, the stored entry's
// credibility is the max of all attempted Puts while fresh.
func TestQuickCredibilityInvariant(t *testing.T) {
	f := func(creds []uint8) bool {
		c := New(simnet.NewVirtualClock(), Config{})
		var maxCred Credibility
		for _, cr := range creds {
			cred := Credibility(cr%5) + 1
			c.Put(entry("x.org", dnswire.TypeA, 600, cred))
			if cred > maxCred {
				maxCred = cred
			}
		}
		if len(creds) == 0 {
			return true
		}
		e, _, ok := c.Get(dnswire.NewName("x.org"), dnswire.TypeA)
		return ok && e.Cred == maxCred
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGetStaleBoundaries pins the RFC 8767 window semantics at its exact
// edges: an entry is stale (not fresh) from the moment elapsed == TTL,
// servable as stale through expiry+staleFor inclusive, and gone one tick
// later.
func TestGetStaleBoundaries(t *testing.T) {
	const ttl = 100
	name := dnswire.NewName("edge.org")

	fresh := func(elapsed time.Duration) (*Entry, uint32, bool, *Cache) {
		clk := simnet.NewVirtualClock()
		c := New(clk, Config{ServeStale: true})
		c.Put(entry("edge.org", dnswire.TypeA, ttl, CredAnswerAuth))
		clk.Advance(elapsed)
		e, rem, ok := c.GetStale(name, dnswire.TypeA)
		return e, rem, ok, c
	}

	// One tick before expiry: still fresh, real remaining TTL.
	if _, rem, ok, c := fresh(ttl*time.Second - time.Second); !ok || rem != 1 {
		t.Errorf("t=TTL-1: rem=%d ok=%v, want fresh with rem=1", rem, ok)
	} else if st := c.Stats(); st.StaleHits != 0 {
		t.Errorf("t=TTL-1: StaleHits=%d, want 0", st.StaleHits)
	}

	// Exactly at expiry: no longer fresh (Remaining: elapsed >= TTL), but
	// inside the stale window, served with the RFC 8767 30 s TTL.
	if e, rem, ok, c := fresh(ttl * time.Second); !ok || rem != 30 {
		t.Errorf("t=TTL: rem=%d ok=%v, want stale serve with rem=30", rem, ok)
	} else {
		if e.Key.Name != name {
			t.Errorf("t=TTL: wrong entry %v", e.Key)
		}
		if st := c.Stats(); st.StaleHits != 1 || st.Hits != 0 {
			t.Errorf("t=TTL: stats=%+v, want 1 stale hit and no fresh hit", st)
		}
	}

	// Exactly at expiry+staleFor: the window is inclusive (now-expiry must
	// EXCEED staleFor to reject), so this still serves.
	if _, rem, ok, _ := fresh(ttl*time.Second + staleFor); !ok || rem != 30 {
		t.Errorf("t=TTL+staleFor: rem=%d ok=%v, want stale serve at window edge", rem, ok)
	}

	// One tick past the window: gone.
	if _, _, ok, c := fresh(ttl*time.Second + staleFor + time.Second); ok {
		t.Errorf("t=TTL+staleFor+1: served beyond the stale window")
	} else if st := c.Stats(); st.StaleHits != 0 {
		t.Errorf("t=TTL+staleFor+1: StaleHits=%d, want 0", st.StaleHits)
	}
}
