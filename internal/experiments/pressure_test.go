package experiments

import (
	"testing"

	"dnsttl/internal/cache"
)

const (
	pressureTestQueries = 4000
	pressureTestSeed    = 44
)

// TestPressureOutcomes pins the semantic shape the golden bytes must tell:
// recency-aware eviction beats FIFO at every grid cell, refresh-ahead lifts
// the short-TTL hit rate (paying in authoritative queries), and the byte
// bound holds everywhere.
func TestPressureOutcomes(t *testing.T) {
	rep := PressureRun(pressureTestQueries, 0, pressureTestSeed)
	for _, c := range rep.Cells {
		t.Logf("%-5s %3dKB ttl=%3d pf=%-5v hit‰=%3d evict=%5d adrej=%5d pf=%4d authq=%5d bytes=%6d entries=%4d",
			c.Policy, c.MaxKB, c.TTL, c.Prefetch, c.HitPerMille, c.Evictions,
			c.AdmissionRejects, c.Prefetches, c.AuthQueries, c.FinalBytes, c.FinalEntries)
	}

	admissionFired := false
	for _, size := range pressureSizes {
		kb := int(size >> 10)
		for _, ttl := range pressureTTLs {
			fifo := rep.Cell(cache.EvictFIFO, kb, int(ttl), false)
			lru := rep.Cell(cache.EvictLRU, kb, int(ttl), false)
			slru := rep.Cell(cache.EvictSLRU, kb, int(ttl), false)
			if fifo == nil || lru == nil || slru == nil {
				t.Fatalf("missing cells at %dKB ttl=%d", kb, ttl)
			}
			if lru.HitPerMille < fifo.HitPerMille {
				t.Errorf("%dKB ttl=%d: LRU hit rate %d‰ below FIFO %d‰",
					kb, ttl, lru.HitPerMille, fifo.HitPerMille)
			}
			if slru.AdmissionRejects > 0 {
				admissionFired = true
			}
		}

		// SLRU/TinyLFU is built for the retention-dominated regime: at the
		// long-TTL cells it must beat both FIFO and plain LRU. (Under heavy
		// expiry churn its admission filter costs misses instead — a real
		// TinyLFU property the golden records rather than hides.)
		slru := rep.Cell(cache.EvictSLRU, kb, 300, false)
		fifo := rep.Cell(cache.EvictFIFO, kb, 300, false)
		lru := rep.Cell(cache.EvictLRU, kb, 300, false)
		if slru.HitPerMille < fifo.HitPerMille || slru.HitPerMille < lru.HitPerMille {
			t.Errorf("%dKB ttl=300: SLRU %d‰ should lead FIFO %d‰ and LRU %d‰",
				kb, slru.HitPerMille, fifo.HitPerMille, lru.HitPerMille)
		}

		// Refresh-ahead at the short-TTL cell: more hits, more upstream
		// queries — the explicit trade.
		plain := rep.Cell(cache.EvictLRU, kb, int(pressurePrefetchTTL), false)
		pf := rep.Cell(cache.EvictLRU, kb, int(pressurePrefetchTTL), true)
		if plain == nil || pf == nil {
			t.Fatalf("missing prefetch cells at %dKB", kb)
		}
		if pf.HitPerMille <= plain.HitPerMille {
			t.Errorf("%dKB: prefetch did not lift hit rate: %d‰ vs %d‰",
				kb, pf.HitPerMille, plain.HitPerMille)
		}
		if pf.Prefetches == 0 {
			t.Errorf("%dKB: prefetch row issued no prefetches", kb)
		}
		if pf.AuthQueries <= plain.AuthQueries {
			t.Errorf("%dKB: prefetch should cost authoritative queries: %d vs %d",
				kb, pf.AuthQueries, plain.AuthQueries)
		}
	}

	if !admissionFired {
		t.Error("SLRU admission filter never fired anywhere in the grid")
	}

	// The byte bound is never exceeded, and every pressured cell evicted.
	for _, c := range rep.Cells {
		if c.FinalBytes > c.MaxKB<<10 {
			t.Errorf("%s %dKB ttl=%d: resident bytes %d exceed bound %d",
				c.Policy, c.MaxKB, c.TTL, c.FinalBytes, c.MaxKB<<10)
		}
		if c.Evictions == 0 && c.Policy != cache.EvictSLRU {
			t.Errorf("%s %dKB ttl=%d: no evictions — grid not under pressure",
				c.Policy, c.MaxKB, c.TTL)
		}
	}
}
