package middleware

import (
	"context"
	"fmt"
	"net/netip"

	"dnsttl/internal/bucket"
	"dnsttl/internal/obs"
)

// rateLimitStage is a per-client token bucket: each masked client address
// earns qps tokens per second up to burst, and a query that finds the
// bucket empty is refused (or silently dropped). Clients are masked to a
// prefix — /32 and /64 by default — so one flooding host cannot rotate
// through a /24 of sources to earn fresh buckets, and one NAT'd office
// shares a single budget, the same aggregation classic resolver ACL
// limiters use.
type rateLimitStage struct {
	base
	prefix4, prefix6 int
	drop             bool
	buckets          *bucket.Table[netip.Addr]

	limited *obs.Counter
	passed  *obs.Counter
}

func init() {
	register("ratelimit", chained, func(b base, o *options) (Stage, error) {
		qps, burst := o.num("qps", 10), o.num("burst", 20)
		st := &rateLimitStage{
			base:    b,
			prefix4: o.integer("prefix4", 32),
			prefix6: o.integer("prefix6", 64),
			buckets: bucket.NewTable[netip.Addr](qps, burst, o.b.env.clock()),
			limited: o.counter("limited"),
			passed:  o.counter("passed"),
		}
		switch action := o.str("action", "refuse"); action {
		case "refuse":
		case "drop":
			st.drop = true
		default:
			return nil, fmt.Errorf("middleware: stage %q: action must be refuse or drop, got %q", b.name, action)
		}
		if err := bucket.Check(qps, burst, st.prefix4, st.prefix6); err != nil {
			return nil, fmt.Errorf("middleware: stage %q: %w", b.name, err)
		}
		return st, nil
	})
}

// admit spends one token from the masked client's bucket, reporting
// whether the query may proceed.
func (s *rateLimitStage) admit(client netip.Addr) bool {
	ok, _ := s.buckets.Take(bucket.MaskClient(client, s.prefix4, s.prefix6))
	return ok
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
	return Response{Result: res, Verdict: VerdictLimited, Drop: s.drop}, nil
}
