package middleware

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// cacheStage memoizes whole responses in front of a sub-chain. It is not
// the resolver's record cache (that one owns TTL decay, eviction
// pressure, serve-stale, and prefetch — see internal/cache): this stage
// is routedns's "cache" element, a message-level memo that shields
// whatever sits behind it — a ttl-modifying sub-chain, a blocklist
// verdict — from repeat questions. Entries live for the smallest TTL in the
// response's answer section (negttl for answerless responses), so no record
// of a CNAME chain is served past its own TTL, and hits serve a copy with
// decayed TTLs, exactly what a downstream cache would see on the wire.
type cacheStage struct {
	base
	entries int
	negTTL  time.Duration
	clock   simnet.Clock

	hits   *obs.Counter
	misses *obs.Counter

	mu    sync.Mutex
	memo  map[dedupKey]*memoEntry
	order []dedupKey // FIFO eviction ring
}

type memoEntry struct {
	resp    Response
	stored  time.Time
	expires time.Time
}

func init() {
	register("cache", chained, func(b base, o *options) (Stage, error) {
		st := &cacheStage{
			base:    b,
			entries: o.integer("entries", 4096),
			negTTL:  time.Duration(o.integer("negttl", 30)) * time.Second,
			clock:   o.b.env.clock(),
			hits:    o.counter("hits"),
			misses:  o.counter("misses"),
			memo:    map[dedupKey]*memoEntry{},
		}
		if st.entries < 1 {
			return nil, fmt.Errorf("middleware: stage %q: entries must be >= 1", b.name)
		}
		return st, nil
	})
}

func (s *cacheStage) Resolve(ctx context.Context, q *Query) (Response, error) {
	k := dedupKey{name: q.Name, qtype: q.Type}
	now := s.clock.Now()

	s.mu.Lock()
	if e, ok := s.memo[k]; ok && now.Before(e.expires) {
		s.mu.Unlock()
		s.hits.Inc()
		return s.serveHit(e, now), nil
	}
	s.mu.Unlock()

	s.misses.Inc()
	resp, err := s.next.Resolve(ctx, q)
	if err != nil || resp.Result == nil || resp.Msg == nil || resp.Drop {
		return resp, err
	}
	ttl := s.negTTL
	if ans := resp.Msg.Answer; len(ans) > 0 {
		least := ans[0].TTL
		for _, rr := range ans[1:] {
			least = min(least, rr.TTL)
		}
		ttl = time.Duration(least) * time.Second
	}
	if ttl <= 0 {
		return resp, nil
	}
	fresh := &memoEntry{resp: resp, stored: now, expires: now.Add(ttl)}
	s.mu.Lock()
	if e, ok := s.memo[k]; !ok {
		for len(s.memo) >= s.entries && len(s.order) > 0 {
			delete(s.memo, s.order[0])
			s.order = s.order[1:]
		}
		s.memo[k] = fresh
		s.order = append(s.order, k)
	} else if !now.Before(e.expires) {
		// The expired entry this miss refetched: the key keeps its slot in
		// order. An unexpired one was filled by a concurrent miss and stays.
		s.memo[k] = fresh
	}
	s.mu.Unlock()
	return resp, nil
}

// serveHit copies the memoized response with answer TTLs decayed by the
// entry's age, marking the copy a cache hit that cost no upstream work.
func (s *cacheStage) serveHit(e *memoEntry, now time.Time) Response {
	age := uint32(now.Sub(e.stored) / time.Second)
	cp := *e.resp.Result
	cp.Msg = copyMsg(e.resp.Msg)
	for i := range cp.Msg.Answer {
		if ttl := cp.Msg.Answer[i].TTL; ttl > age {
			cp.Msg.Answer[i].TTL = ttl - age
		} else {
			cp.Msg.Answer[i].TTL = 0
		}
	}
	cp.CacheHit = true
	cp.Coalesced = false
	cp.Stale = false
	cp.Latency = 0
	cp.Queries = 0
	cp.Timeouts = 0
	cp.Retries = 0
	cp.Hedges = 0
	cp.AnswerTTL = cp.Msg.AnswerTTL()
	return Response{Result: &cp, Verdict: VerdictCached, Stage: s.name}
}
