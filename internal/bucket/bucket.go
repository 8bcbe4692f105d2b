// Package bucket is the one token-bucket table behind every rate limiter:
// the middleware per-client query limiter, the authoritative server's
// response rate limiting, and the resolver's refresh-ahead budget.
package bucket

import (
	"fmt"
	"math"
	"net/netip"
	"sync"
	"time"

	"dnsttl/internal/simnet"
)

// maxBuckets bounds a table against key floods (spoofed sources, random
// qnames): at the cap the table is reset wholesale, which briefly
// re-admits everyone — strictly safer than unbounded growth, and cheaper
// than LRU bookkeeping on the per-query hot path.
const maxBuckets = 1 << 16

type bucket struct {
	tokens float64
	last   time.Time
	denied int // takes refused since the bucket last granted one
}

// Table holds one token bucket per key: each earns rate tokens per second
// up to burst, and starts full.
type Table[K comparable] struct {
	rate, burst float64
	clock       simnet.Clock

	mu      sync.Mutex
	buckets map[K]*bucket
}

// NewTable builds an empty table refilling on clock.
func NewTable[K comparable](rate, burst float64, clock simnet.Clock) *Table[K] {
	return &Table[K]{rate: rate, burst: burst, clock: clock, buckets: map[K]*bucket{}}
}

// Take spends one token from k's bucket. When the bucket is empty ok is
// false and denied counts the takes refused since the bucket last granted
// one (this one included) — the cadence RRL's slip is driven by.
func (t *Table[K]) Take(k K) (ok bool, denied int) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	bk := t.buckets[k]
	if bk == nil {
		if len(t.buckets) >= maxBuckets {
			t.buckets = map[K]*bucket{}
		}
		bk = &bucket{tokens: t.burst, last: now}
		t.buckets[k] = bk
	} else {
		if dt := now.Sub(bk.last); dt > 0 {
			bk.tokens += dt.Seconds() * t.rate
			if bk.tokens > t.burst {
				bk.tokens = t.burst
			}
		}
		bk.last = now
	}
	if bk.tokens < 1 {
		bk.denied++
		return false, bk.denied
	}
	bk.tokens--
	bk.denied = 0
	return true, 0
}

// Check validates the four numbers of a per-client token-bucket limiter:
// a finite rate above 0, a finite burst of at least one token, and masking
// prefixes no longer than an IPv4 and an IPv6 address. A NaN rate or burst
// would pass every query after the first refill, so the comparisons are
// written for NaN to fail them.
func Check(rate, burst float64, prefix4, prefix6 int) error {
	switch {
	case !(rate > 0) || math.IsInf(rate, 1):
		return fmt.Errorf("rate %v is not a finite number above 0", rate)
	case !(burst >= 1) || math.IsInf(burst, 1):
		return fmt.Errorf("burst %v is not a finite number of at least 1", burst)
	case prefix4 < 0 || prefix4 > 32:
		return fmt.Errorf("prefix4 %d is outside [0, 32]", prefix4)
	case prefix6 < 0 || prefix6 > 128:
		return fmt.Errorf("prefix6 %d is outside [0, 128]", prefix6)
	}
	return nil
}

// MaskClient aggregates a client address into its network prefix —
// prefix4 bits for IPv4 (mapped or not), prefix6 for IPv6 — so one host
// cannot rotate through its network's addresses to earn fresh buckets.
func MaskClient(client netip.Addr, prefix4, prefix6 int) netip.Addr {
	bits := prefix6
	if client.Is4() || client.Is4In6() {
		bits = prefix4
	}
	p, err := client.Unmap().Prefix(bits)
	if err != nil {
		return client
	}
	return p.Addr()
}
