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
	name      string
	next      Stage
	leaders   *obs.Counter
	coalesced *obs.Counter
	flight    flight.Group[dedupKey, Response]
}

type dedupKey struct {
	name  dnswire.Name
	qtype dnswire.Type
}

func init() {
	register("dedup", func(b *builder, sp *stageSpec) (Stage, error) {
		o := options{sp: sp, seen: map[string]bool{"type": true}}
		st := &dedupStage{
			name:      sp.name,
			leaders:   b.env.counter(sp.name, "leaders"),
			coalesced: b.env.counter(sp.name, "coalesced"),
		}
		next, err := b.next(&o)
		if err != nil {
			return nil, err
		}
		st.next = next
		if err := o.finish(); err != nil {
			return nil, err
		}
		return st, nil
	})
}

func (s *dedupStage) Name() string { return s.name }

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
