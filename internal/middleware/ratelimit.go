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
	name             string
	next             Stage
	prefix4, prefix6 int
	drop             bool
	buckets          *bucket.Table[netip.Addr]

	limited *obs.Counter
	passed  *obs.Counter
}

func init() {
	register("ratelimit", func(b *builder, sp *stageSpec) (Stage, error) {
		o := options{sp: sp, seen: map[string]bool{"type": true}}
		qps, burst := o.num("qps", 10), o.num("burst", 20)
		st := &rateLimitStage{
			name:    sp.name,
			prefix4: o.integer("prefix4", 32),
			prefix6: o.integer("prefix6", 64),
			buckets: bucket.NewTable[netip.Addr](qps, burst, b.env.clock()),
			limited: b.env.counter(sp.name, "limited"),
			passed:  b.env.counter(sp.name, "passed"),
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
		if qps <= 0 || burst < 1 {
			return nil, fmt.Errorf("middleware: stage %q: need qps > 0 and burst >= 1", sp.name)
		}
		if st.prefix4 < 0 || st.prefix4 > 32 || st.prefix6 < 0 || st.prefix6 > 128 {
			return nil, fmt.Errorf("middleware: stage %q: prefix4/prefix6 out of range", sp.name)
		}
		return st, nil
	})
}

func (s *rateLimitStage) Name() string { return s.name }

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
	return Response{Result: res, Verdict: VerdictLimited, Stage: s.name, Drop: s.drop}, nil
}
