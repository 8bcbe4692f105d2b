package resolver

import (
	"errors"
	"math/rand"
	"net/netip"
	"sync"
	"time"
)

// RetryPolicy configures how a resolver behaves when an upstream exchange
// fails or stalls — the knobs that decide user-visible availability when
// authoritatives degrade (§5 of the paper, RFC 8767's motivating regime).
// The zero value preserves the legacy behavior: up to three distinct
// servers per step, no backoff, no hedging, shuffled server order.
type RetryPolicy struct {
	// Attempts is the maximum upstream attempts per iteration step,
	// counting the first. When positive, attempts cycle over the candidate
	// servers, so even a single-server zone gets retried. Zero tries up to
	// three distinct servers, once each.
	Attempts int
	// Backoff is the delay inserted before the first retry; each further
	// retry multiplies it by Factor, capped at MaxBackoff. Zero disables
	// backoff. Delays are charged to the client as virtual latency.
	Backoff time.Duration
	// MaxBackoff caps the grown backoff; zero means 30 s.
	MaxBackoff time.Duration
	// Factor is the backoff multiplier; values <= 1 mean 2.
	Factor float64
	// Jitter randomizes each backoff b to b + U[0, Jitter·b), drawn from
	// the resolver's seeded RNG so runs stay deterministic. Values are
	// clamped to [0, 1].
	Jitter float64
	// Hedge, when positive, launches a second identical query to the
	// next-best server once the first has been outstanding this long, and
	// the client pays only the earlier completion — tail-latency
	// insurance priced at one extra upstream query. Needs >= 2 candidate
	// servers.
	Hedge time.Duration
	// OrderBySRTT orders candidate servers by decaying smoothed-RTT
	// estimates (unknown servers first, then fastest), penalizing servers
	// that timed out, instead of shuffling uniformly.
	OrderBySRTT bool
}

// enabled reports whether any retry-plane behavior deviates from legacy.
func (rp RetryPolicy) enabled() bool {
	return rp.Attempts > 0 || rp.Backoff > 0 || rp.Hedge > 0 || rp.OrderBySRTT
}

func (rp RetryPolicy) factor() float64 {
	if rp.Factor <= 1 {
		return 2
	}
	return rp.Factor
}

func (rp RetryPolicy) maxBackoff() time.Duration {
	if rp.MaxBackoff <= 0 {
		return 30 * time.Second
	}
	return rp.MaxBackoff
}

func (rp RetryPolicy) jitter() float64 {
	switch {
	case rp.Jitter < 0:
		return 0
	case rp.Jitter > 1:
		return 1
	}
	return rp.Jitter
}

// backoffFor returns the pre-jitter delay before retry number n (n >= 1).
// The sequence is monotone non-decreasing and capped at MaxBackoff.
func (rp RetryPolicy) backoffFor(n int) time.Duration {
	if rp.Backoff <= 0 || n < 1 {
		return 0
	}
	b := float64(rp.Backoff)
	f := rp.factor()
	cap := float64(rp.maxBackoff())
	for i := 1; i < n; i++ {
		b *= f
		if b >= cap {
			return rp.maxBackoff()
		}
	}
	if b > cap {
		b = cap
	}
	return time.Duration(b)
}

// jitterFor draws the randomized addition for a backoff b from rng. The
// result is always in [0, Jitter·b).
func (rp RetryPolicy) jitterFor(b time.Duration, rng *rand.Rand) time.Duration {
	j := rp.jitter()
	if j <= 0 || b <= 0 {
		return 0
	}
	span := int64(float64(b) * j)
	if span <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(span))
}

// Attempt-failure sentinels. Allocation-free so the retry loop stays clean
// on the happy path.
var (
	// errTruncated marks an empty TC=1 reply (no TCP in the simulated
	// plane, so truncation means "try another server").
	errTruncated = errors.New("resolver: truncated reply")
	// errUpstreamFailed marks a SERVFAIL/REFUSED reply treated as
	// retryable under an active RetryPolicy.
	errUpstreamFailed = errors.New("resolver: upstream returned failure rcode")
)

// srttAlpha is the EWMA weight for new RTT observations (RFC 6298's 1/8 is
// for smoothing real jitter; resolvers converge faster at 1/4).
const srttAlpha = 0.25

// srttTable tracks decaying smoothed-RTT estimates per server, shared by
// every resolution of one resolver. Timeouts penalize multiplicatively so a
// flapping server sinks to the back of serverOrder until fresh successes
// pull it forward again.
type srttTable struct {
	mu sync.Mutex
	m  map[netip.Addr]time.Duration
}

func newSRTTTable() *srttTable {
	return &srttTable{m: make(map[netip.Addr]time.Duration)}
}

// observe folds a successful exchange's RTT into the estimate and returns
// the updated value.
func (t *srttTable) observe(server netip.Addr, rtt time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.m[server]
	if !ok {
		t.m[server] = rtt
		return rtt
	}
	next := time.Duration((1-srttAlpha)*float64(cur) + srttAlpha*float64(rtt))
	t.m[server] = next
	return next
}

// penalize books a timeout: the estimate doubles (from the charged cost if
// unknown), capped at 8× the cost so one bad window doesn't exile a server
// forever.
func (t *srttTable) penalize(server netip.Addr, cost time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.m[server]
	if !ok || cur < cost {
		cur = cost
	}
	next := 2 * cur
	if max := 8 * cost; cost > 0 && next > max {
		next = max
	}
	t.m[server] = next
	return next
}

// sortBySRTT orders servers in place: unknown servers first (in their given
// order, so fresh servers get explored), then known servers by ascending
// estimate. Insertion sort keeps the hot path allocation-free — candidate
// lists are a handful of entries.
func (t *srttTable) sortBySRTT(servers []netip.Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := func(a netip.Addr) (time.Duration, bool) {
		d, ok := t.m[a]
		return d, ok
	}
	for i := 1; i < len(servers); i++ {
		for j := i; j > 0; j-- {
			dj, okj := key(servers[j])
			dp, okp := key(servers[j-1])
			// Unknown (ok=false) sorts before known; among known, lower
			// estimate first. Equal keys keep their order (stable).
			less := (!okj && okp) || (okj && okp && dj < dp)
			if !less {
				break
			}
			servers[j], servers[j-1] = servers[j-1], servers[j]
		}
	}
}
