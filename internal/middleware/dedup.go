package middleware

import (
	"context"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/flight"
	"dnsttl/internal/obs"
)

// dedupStage coalesces identical in-flight questions: the first query for
// a ⟨name, type⟩ becomes the leader and runs the rest of the chain;
// queries arriving before it finishes wait and share its answer. It is the
// farm's Coalesce mechanism (one internal/flight group, one follower copy)
// placed by the spec instead of around every frontend, so a sub-chain
// behind a router can coalesce on its own. Deduplication is name-keyed,
// never client-keyed: placing it after a rate limiter keeps per-client
// accounting exact.
type dedupStage struct {
	base
	leaders   *obs.Counter
	coalesced *obs.Counter
	flight    flight.Group[dedupKey, Response]
}

type dedupKey struct {
	name  dnswire.Name
	qtype dnswire.Type
}

func init() {
	register("dedup", chained, func(b base, o *options) (Stage, error) {
		return &dedupStage{base: b, leaders: o.counter("leaders"), coalesced: o.counter("coalesced")}, nil
	})
}

func (s *dedupStage) Resolve(ctx context.Context, q *Query) (Response, error) {
	resp, err, joined := s.flight.Do(dedupKey{name: q.Name, qtype: q.Type}, s.coalesced.Inc,
		func() (Response, error) {
			s.leaders.Inc()
			return s.next.Resolve(ctx, q)
		})
	if joined && err == nil {
		resp.Result = resp.Result.Follower()
	}
	return resp, err
}
