package middleware

import (
	"context"
	"fmt"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

// blocklistStage answers queries for blocked suffixes locally — the
// Pi-hole/routedns "blocklist-v2" shape. A query matches when its qname
// equals or is a subdomain of any listed name; matches never reach the
// resolver, so a blocklist early in the chain is also a cheap defense
// against floods aimed at a known-bad domain.
type blocklistStage struct {
	base
	roots   map[dnswire.Name]bool
	action  string // "nxdomain" or "refused"
	blocked *obs.Counter
	passed  *obs.Counter
}

func init() {
	register("blocklist", chained, func(b base, o *options) (Stage, error) {
		st := &blocklistStage{
			base:    b,
			roots:   o.names("block"),
			action:  o.str("action", "nxdomain"),
			blocked: o.counter("blocked"),
			passed:  o.counter("passed"),
		}
		if len(st.roots) == 0 {
			return nil, fmt.Errorf("middleware: stage %q needs block = \"bad.example ...\"", b.name)
		}
		if st.action != "nxdomain" && st.action != "refused" {
			return nil, fmt.Errorf("middleware: stage %q: action must be nxdomain or refused, got %q", b.name, st.action)
		}
		return st, nil
	})
}

// matches walks the qname's ancestors against the block set, the same
// O(label count) walk the authoritative server uses for zone cuts.
func (s *blocklistStage) matches(name dnswire.Name) bool {
	for n := name; ; n = n.Parent() {
		if s.roots[n] {
			return true
		}
		if n.IsRoot() {
			return false
		}
	}
}

func (s *blocklistStage) Resolve(ctx context.Context, q *Query) (Response, error) {
	if !s.matches(q.Name) {
		s.passed.Inc()
		return s.next.Resolve(ctx, q)
	}
	s.blocked.Inc()
	res := refused(q)
	if s.action == "nxdomain" {
		res.Msg.Header.RCode = dnswire.RCodeNXDomain
	}
	res.Trace.CacheHit = true // answered without upstream work
	return Response{Result: res, Verdict: VerdictBlocked}, nil
}
