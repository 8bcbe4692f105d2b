package middleware

import (
	"context"
	"fmt"
	"net/netip"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

// resolverStage is the terminal stage: it hands the query to the host's
// datapath (resolver or farm frontend). The zero-config default pipeline
// is exactly one of these.
type resolverStage struct {
	base
	lookup  LookupFunc
	queries *obs.Counter
}

func init() {
	register("resolver", terminal, func(b base, o *options) (Stage, error) {
		return &resolverStage{base: b, lookup: o.b.env.Lookup, queries: o.counter("queries")}, nil
	})
}

func (s *resolverStage) Resolve(_ context.Context, q *Query) (Response, error) {
	s.queries.Inc()
	if s.lookup == nil {
		return Response{}, fmt.Errorf("middleware: stage %q has no lookup datapath", s.name)
	}
	res, err := s.lookup(q.Name, q.Type)
	if err != nil {
		return Response{}, err
	}
	return Response{Result: res, Verdict: VerdictResolved, Stage: s.name}, nil
}

// ttlmodStage clamps answer-section TTLs into [min, max] on the way back
// to the client — the operator-facing knob for the paper's central
// variable, applied after caching so the cache still honors origin TTLs.
type ttlmodStage struct {
	base
	min, max  uint32
	rewritten *obs.Counter
}

func init() {
	register("ttlmod", chained, func(b base, o *options) (Stage, error) {
		st := &ttlmodStage{
			base:      b,
			min:       uint32(o.integer("min", 0)),
			max:       uint32(o.integer("max", 0)),
			rewritten: o.counter("rewritten"),
		}
		if st.max != 0 && st.min > st.max {
			return nil, fmt.Errorf("middleware: stage %q: min %d > max %d", b.name, st.min, st.max)
		}
		return st, nil
	})
}

func (s *ttlmodStage) clamp(ttl uint32) uint32 {
	if ttl < s.min {
		ttl = s.min
	}
	if s.max != 0 && ttl > s.max {
		ttl = s.max
	}
	return ttl
}

func (s *ttlmodStage) Resolve(ctx context.Context, q *Query) (Response, error) {
	resp, err := s.next.Resolve(ctx, q)
	if err != nil || resp.Result == nil || resp.Msg == nil {
		return resp, err
	}
	changed := false
	for _, rr := range resp.Msg.Answer {
		if s.clamp(rr.TTL) != rr.TTL {
			changed = true
			break
		}
	}
	if !changed {
		return resp, nil
	}
	// Copy-on-write: the message may be shared with a cache entry or a
	// coalesced follower.
	cp := *resp.Result
	cp.Msg = copyMsg(resp.Msg)
	for i := range cp.Msg.Answer {
		cp.Msg.Answer[i].TTL = s.clamp(cp.Msg.Answer[i].TTL)
	}
	cp.AnswerTTL = cp.Msg.AnswerTTL()
	s.rewritten.Inc()
	resp.Result = &cp
	return resp, nil
}

// collapseStage minimizes responses: it strips the authority and
// additional sections and can cap the answer section, trading referral
// context for datagram size (qname-minimization's response-side cousin).
type collapseStage struct {
	base
	maxAnswer int // 0 = no cap
	collapsed *obs.Counter
}

func init() {
	register("collapse", chained, func(b base, o *options) (Stage, error) {
		return &collapseStage{base: b, maxAnswer: o.integer("answers", 0), collapsed: o.counter("collapsed")}, nil
	})
}

func (s *collapseStage) Resolve(ctx context.Context, q *Query) (Response, error) {
	resp, err := s.next.Resolve(ctx, q)
	if err != nil || resp.Result == nil || resp.Msg == nil {
		return resp, err
	}
	m := resp.Msg
	capped := s.maxAnswer > 0 && len(m.Answer) > s.maxAnswer
	if len(m.Authority) == 0 && len(m.Additional) == 0 && !capped {
		return resp, nil
	}
	cp := *resp.Result
	cp.Msg = copyMsg(m)
	cp.Msg.Authority = nil
	cp.Msg.Additional = nil
	if capped {
		cp.Msg.Answer = cp.Msg.Answer[:s.maxAnswer]
	}
	s.collapsed.Inc()
	resp.Result = &cp
	return resp, nil
}

// staticStage answers an exact set of names locally with a fixed A record
// — split-horizon overrides, sinkholes, and test fixtures. Non-matching
// queries pass through.
type staticStage struct {
	base
	names  map[dnswire.Name]bool
	answer dnswire.RR
	served *obs.Counter
}

func init() {
	register("static", chained, func(b base, o *options) (Stage, error) {
		st := &staticStage{base: b, names: o.names("names"), served: o.counter("served")}
		addr, ttl := o.str("answer", ""), o.integer("ttl", 300)
		if len(st.names) == 0 {
			return nil, fmt.Errorf("middleware: stage %q needs names = \"a.example b.example\"", b.name)
		}
		ip, err := netip.ParseAddr(addr)
		if err != nil || !ip.Is4() {
			return nil, fmt.Errorf("middleware: stage %q needs answer = \"ipv4\", got %q", b.name, addr)
		}
		st.answer = dnswire.RR{
			Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: uint32(ttl), Data: dnswire.A{Addr: ip},
		}
		return st, nil
	})
}

func (s *staticStage) Resolve(ctx context.Context, q *Query) (Response, error) {
	if q.Type != dnswire.TypeA || !s.names[q.Name] {
		return s.next.Resolve(ctx, q)
	}
	s.served.Inc()
	rr := s.answer
	rr.Name = q.Name
	res := refused(q)
	res.Msg.Header.RCode = dnswire.RCodeNoError
	res.Msg.Header.AA = false
	res.Msg.AddAnswer(rr)
	res.Trace.CacheHit = true
	res.Trace.AnswerTTL = rr.TTL
	return Response{Result: res, Verdict: VerdictBlocked, Stage: s.name}, nil
}
