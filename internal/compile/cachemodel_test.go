package compile

import (
	"math"
	"testing"

	"dnsttl/internal/cache"
)

// solveCache is solveCacheInto with a fresh buffer.
func solveCache(lines []Line, spec CacheSpec) Solution {
	return solveCacheInto(make([]LineRates, len(lines)), lines, spec)
}

func TestSolveCacheFixedPoint(t *testing.T) {
	// 60 lines with Zipf-ish rates; bytes chosen so the bound binds.
	var lines []Line
	for i := 0; i < 60; i++ {
		lines = append(lines, Line{Lambda: 2 / float64(i+1), TTL: 300, Bytes: 100})
	}
	unbounded := solveCache(lines, CacheSpec{Policy: cache.EvictLRU})
	if !math.IsInf(unbounded.CharTime, 1) {
		t.Fatalf("unbounded solve should not bind: charTime %v", unbounded.CharTime)
	}
	budget := unbounded.OccBytes * 0.5
	for _, policy := range []cache.EvictionPolicy{cache.EvictFIFO, cache.EvictLRU, cache.EvictSLRU} {
		sol := solveCache(lines, CacheSpec{MaxBytes: budget, Policy: policy})
		if sol.OccBytes > budget*1.02 {
			t.Errorf("%s: occupancy bytes %.0f exceed budget %.0f", policy, sol.OccBytes, budget)
		}
		if policy != cache.EvictSLRU && sol.OccBytes < budget*0.95 {
			t.Errorf("%s: fixed point undershoots budget: %.0f of %.0f", policy, sol.OccBytes, budget)
		}
		if sol.Hit <= 0 || sol.Hit >= unbounded.Hit {
			t.Errorf("%s: bounded hit %.4f should be in (0, %.4f)", policy, sol.Hit, unbounded.Hit)
		}
		// Upstream must cover at least the lost hits.
		if sol.Upstream <= unbounded.Upstream {
			t.Errorf("%s: bounded upstream %.4f should exceed unbounded %.4f", policy, sol.Upstream, unbounded.Upstream)
		}
	}
	// SLRU's knapsack favors the head: its aggregate hit rate should beat
	// FIFO's under the same budget (the retention-dominated regime).
	slru := solveCache(lines, CacheSpec{MaxBytes: budget, Policy: cache.EvictSLRU})
	fifo := solveCache(lines, CacheSpec{MaxBytes: budget, Policy: cache.EvictFIFO})
	if slru.Hit <= fifo.Hit {
		t.Errorf("slru hit %.4f should beat fifo %.4f under pressure", slru.Hit, fifo.Hit)
	}
}
