package middleware

import (
	"context"
	"sync"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

// dedupStage coalesces identical in-flight questions: the first query for
// a ⟨name, type⟩ becomes the leader and runs the rest of the chain;
// queries arriving before it finishes wait and share its answer. This is
// the farm's cross-frontend singleflight expressed as a pipeline stage,
// so a single-resolver deployment — or a sub-chain behind a router — can
// opt into coalescing too. Deduplication is name-keyed, never
// client-keyed: placing it after a rate limiter keeps per-client
// accounting exact.
type dedupStage struct {
	name      string
	next      Stage
	leaders   *obs.Counter
	coalesced *obs.Counter

	mu    sync.Mutex
	calls map[dedupKey]*dedupCall
}

type dedupKey struct {
	name  dnswire.Name
	qtype dnswire.Type
}

type dedupCall struct {
	wg   sync.WaitGroup
	resp Response
	err  error
	dups int
}

func init() {
	register("dedup", func(b *builder, sp *stageSpec) (Stage, error) {
		o := options{sp: sp, seen: map[string]bool{"type": true}}
		st := &dedupStage{
			name:      sp.name,
			leaders:   b.env.counter(sp.name, "leaders"),
			coalesced: b.env.counter(sp.name, "coalesced"),
			calls:     map[dedupKey]*dedupCall{},
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
	k := dedupKey{name: q.Name, qtype: q.Type}
	s.mu.Lock()
	if c, ok := s.calls[k]; ok {
		c.dups++
		s.mu.Unlock()
		s.coalesced.Inc()
		c.wg.Wait()
		if c.err != nil || c.resp.Result == nil {
			return c.resp, c.err
		}
		// Followers get their own Result marked coalesced: they cost zero
		// upstream work. The message is the leader's, shared and never
		// written — serve paths stamp each client's ID into the encoded
		// bytes.
		cp := *c.resp.Result
		cp.CacheHit = false
		cp.Coalesced = true
		cp.Queries = 0
		cp.Timeouts = 0
		cp.Retries = 0
		cp.Hedges = 0
		out := c.resp
		out.Result = &cp
		return out, nil
	}
	c := &dedupCall{}
	c.wg.Add(1)
	s.calls[k] = c
	s.mu.Unlock()

	s.leaders.Inc()
	c.resp, c.err = s.next.Resolve(ctx, q)

	s.mu.Lock()
	delete(s.calls, k)
	s.mu.Unlock()
	c.wg.Done()
	return c.resp, c.err
}

// inFlight reports how many followers are waiting on k — tests use it to
// stage deterministic coalescing.
func (s *dedupStage) inFlight(k dedupKey) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.calls[k]; ok {
		return c.dups
	}
	return 0
}
