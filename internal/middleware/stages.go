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
		return &resolverStage{base: b, lookup: o.b.env.lookup(), queries: o.counter("queries")}, nil
	})
}

func (s *resolverStage) Resolve(ctx context.Context, q *Query) (Response, error) {
	s.queries.Inc()
	if s.lookup == nil {
		return Response{}, fmt.Errorf("middleware: stage %q has no lookup datapath", s.name)
	}
	res, err := s.lookup(ctx, q.Into, q.Name, q.Type)
	if err != nil {
		return Response{}, err
	}
	return Response{Result: res, Verdict: VerdictResolved}, nil
}

// ttlmodStage caps answer-section TTLs at max on the way back to the client
// — the operator-facing knob for the paper's central variable, applied after
// caching so the cache still honors origin TTLs. It only lowers a TTL: a
// raised one would outlive what the cache stores.
type ttlmodStage struct {
	base
	max       uint32
	rewritten *obs.Counter
}

func init() {
	register("ttlmod", chained, func(b base, o *options) (Stage, error) {
		return &ttlmodStage{base: b, max: o.ttl("max", 0), rewritten: o.counter("rewritten")}, nil
	})
}

func (s *ttlmodStage) clamp(ttl uint32) uint32 {
	if s.max != 0 && ttl > s.max {
		return s.max
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

// staticStage answers an exact set of names locally with a fixed A record
// — split-horizon overrides, sinkholes, and test fixtures. It owns its
// names: any other query type for one of them is answered NOERROR/NODATA
// rather than leaked to the next stage. Non-matching names pass through.
type staticStage struct {
	base
	names  map[dnswire.Name]bool
	answer dnswire.RR
	served *obs.Counter
}

func init() {
	register("static", chained, func(b base, o *options) (Stage, error) {
		st := &staticStage{base: b, names: o.names("names"), served: o.counter("served")}
		addr, ttl := o.str("answer", ""), o.ttl("ttl", 300)
		if len(st.names) == 0 {
			return nil, fmt.Errorf("middleware: stage %q needs names = \"a.example b.example\"", b.name)
		}
		ip, err := netip.ParseAddr(addr)
		if err != nil || !ip.Is4() {
			return nil, fmt.Errorf("middleware: stage %q needs answer = \"ipv4\", got %q", b.name, addr)
		}
		st.answer = dnswire.RR{
			Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: ttl, Data: dnswire.A{Addr: ip},
		}
		return st, nil
	})
}

func (s *staticStage) Resolve(ctx context.Context, q *Query) (Response, error) {
	if !s.names[q.Name] {
		return s.next.Resolve(ctx, q)
	}
	s.served.Inc()
	res := refused(q)
	res.Msg.Header.RCode = dnswire.RCodeNoError
	res.Trace.CacheHit = true
	if q.Type == dnswire.TypeA {
		rr := s.answer
		rr.Name = q.Name
		res.Msg.AddAnswer(rr)
		res.Trace.AnswerTTL = rr.TTL
	}
	return Response{Result: res, Verdict: VerdictBlocked}, nil
}
