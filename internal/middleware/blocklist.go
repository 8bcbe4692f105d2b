package middleware

import (
	"context"
	"fmt"
	"strings"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

// blocklistStage answers queries for blocked suffixes locally — the
// Pi-hole/routedns "blocklist-v2" shape. A query matches when its qname
// equals or is a subdomain of any listed name; matches never reach the
// resolver, so a blocklist early in the chain is also a cheap defense
// against floods aimed at a known-bad domain.
type blocklistStage struct {
	name    string
	next    Stage
	roots   map[dnswire.Name]bool
	action  string // "nxdomain" or "refused"
	blocked *obs.Counter
	passed  *obs.Counter
}

func init() {
	register("blocklist", func(b *builder, sp *stageSpec) (Stage, error) {
		o := options{sp: sp, seen: map[string]bool{"type": true}}
		st := &blocklistStage{
			name:    sp.name,
			roots:   map[dnswire.Name]bool{},
			action:  o.str("action", "nxdomain"),
			blocked: b.env.counter(sp.name, "blocked"),
			passed:  b.env.counter(sp.name, "passed"),
		}
		for _, n := range strings.Fields(o.str("block", "")) {
			name := dnswire.NewName(n)
			if err := name.Valid(); err != nil {
				return nil, fmt.Errorf("middleware: stage %q: bad name %q: %v", sp.name, n, err)
			}
			st.roots[name] = true
		}
		next, err := b.next(&o)
		if err != nil {
			return nil, err
		}
		st.next = next
		if err := o.finish(); err != nil {
			return nil, err
		}
		if len(st.roots) == 0 {
			return nil, fmt.Errorf("middleware: stage %q needs block = \"bad.example ...\"", sp.name)
		}
		if st.action != "nxdomain" && st.action != "refused" {
			return nil, fmt.Errorf("middleware: stage %q: action must be nxdomain or refused, got %q", sp.name, st.action)
		}
		return st, nil
	})
}

func (s *blocklistStage) Name() string { return s.name }

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
	return Response{Result: res, Verdict: VerdictBlocked, Stage: s.name}, nil
}
