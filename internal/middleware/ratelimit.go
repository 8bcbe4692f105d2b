package middleware

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// rateLimitStage is a per-client token bucket: each masked client address
// earns qps tokens per second up to burst, and a query that finds the
// bucket empty is refused (or silently dropped). Clients are masked to a
// prefix — /32 and /64 by default — so one flooding host cannot rotate
// through a /24 of sources to earn fresh buckets, and one NAT'd office
// shares a single budget, the same aggregation classic resolver ACL
// limiters use.
type rateLimitStage struct {
	name             string
	next             Stage
	qps              float64
	burst            float64
	prefix4, prefix6 int
	drop             bool
	clock            simnet.Clock

	limited *obs.Counter
	passed  *obs.Counter

	mu      sync.Mutex
	buckets map[netip.Addr]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds limiter state against source-address floods: at the
// cap the table is reset wholesale, which briefly re-admits everyone —
// strictly safer than unbounded growth, and cheaper than LRU bookkeeping
// on the per-query hot path.
const maxBuckets = 1 << 16

func init() {
	register("ratelimit", func(b *builder, sp *stageSpec) (Stage, error) {
		o := options{sp: sp, seen: map[string]bool{"type": true}}
		st := &rateLimitStage{
			name:    sp.name,
			qps:     o.num("qps", 10),
			burst:   o.num("burst", 20),
			prefix4: o.integer("prefix4", 32),
			prefix6: o.integer("prefix6", 64),
			clock:   b.env.clock(),
			limited: b.env.counter(sp.name, "limited"),
			passed:  b.env.counter(sp.name, "passed"),
			buckets: map[netip.Addr]*bucket{},
		}
		switch action := o.str("action", "refuse"); action {
		case "refuse":
		case "drop":
			st.drop = true
		default:
			return nil, fmt.Errorf("middleware: stage %q: action must be refuse or drop, got %q", sp.name, action)
		}
		next, err := b.next(&o)
		if err != nil {
			return nil, err
		}
		st.next = next
		if err := o.finish(); err != nil {
			return nil, err
		}
		if st.qps <= 0 || st.burst < 1 {
			return nil, fmt.Errorf("middleware: stage %q: need qps > 0 and burst >= 1", sp.name)
		}
		if st.prefix4 < 0 || st.prefix4 > 32 || st.prefix6 < 0 || st.prefix6 > 128 {
			return nil, fmt.Errorf("middleware: stage %q: prefix4/prefix6 out of range", sp.name)
		}
		return st, nil
	})
}

func (s *rateLimitStage) Name() string { return s.name }

// key masks the client to the configured prefix.
func (s *rateLimitStage) key(client netip.Addr) netip.Addr {
	bits := s.prefix6
	if client.Is4() || client.Is4In6() {
		bits = s.prefix4
	}
	p, err := client.Unmap().Prefix(bits)
	if err != nil {
		return client
	}
	return p.Addr()
}

// admit spends one token from the client's bucket, reporting whether the
// query may proceed.
func (s *rateLimitStage) admit(client netip.Addr) bool {
	now := s.clock.Now()
	key := s.key(client)
	s.mu.Lock()
	defer s.mu.Unlock()
	bk := s.buckets[key]
	if bk == nil {
		if len(s.buckets) >= maxBuckets {
			s.buckets = map[netip.Addr]*bucket{}
		}
		bk = &bucket{tokens: s.burst, last: now}
		s.buckets[key] = bk
	} else {
		if dt := now.Sub(bk.last); dt > 0 {
			bk.tokens += dt.Seconds() * s.qps
			if bk.tokens > s.burst {
				bk.tokens = s.burst
			}
		}
		bk.last = now
	}
	if bk.tokens < 1 {
		return false
	}
	bk.tokens--
	return true
}

func (s *rateLimitStage) Resolve(ctx context.Context, q *Query) (Response, error) {
	// In-process lookups carry no client address; the limiter is a
	// network-edge defense, so they pass untouched.
	if !q.Client.IsValid() || s.admit(q.Client) {
		s.passed.Inc()
		return s.next.Resolve(ctx, q)
	}
	s.limited.Inc()
	res := refused(q)
	return Response{Result: res, Verdict: VerdictLimited, Stage: s.name, Drop: s.drop}, nil
}
