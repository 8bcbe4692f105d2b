package middleware

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

// routerStage forwards queries to different sub-chains by qname suffix —
// routedns's "route" element. Routes are longest-suffix-wins, so
//
//	[stage.split]
//	type    = "router"
//	routes  = "corp.example -> internal; example -> filtered"
//	default = "resolver"
//
// sends a.corp.example down "internal", other example names down
// "filtered", and everything else down "default". Each route target is a
// stage name; the router is how one listener hosts split-horizon,
// per-zone hardening, or a quarantine chain.
type routerStage struct {
	base
	routes   []route // longest suffix first
	fallback Stage
	routed   *obs.Counter
}

type route struct {
	suffix dnswire.Name
	to     Stage
	labels int
}

func init() {
	register("router", terminal, func(b base, o *options) (Stage, error) {
		st := &routerStage{base: b, routed: o.counter("routed")}
		spec := o.str("routes", "")
		def := o.str("default", "")
		if def == "" {
			return nil, fmt.Errorf("middleware: stage %q needs default = \"stage\"", b.name)
		}
		var err error
		if st.fallback, err = o.b.stage(def); err != nil {
			return nil, err
		}
		for _, part := range strings.Split(spec, ";") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			sfx, target, ok := strings.Cut(part, "->")
			if !ok {
				return nil, fmt.Errorf("middleware: stage %q: route %q wants \"suffix -> stage\"", b.name, part)
			}
			name := dnswire.NewName(strings.TrimSpace(sfx))
			if err := name.Valid(); err != nil {
				return nil, fmt.Errorf("middleware: stage %q: bad route suffix %q: %v", b.name, sfx, err)
			}
			to, err := o.b.stage(strings.TrimSpace(target))
			if err != nil {
				return nil, err
			}
			st.routes = append(st.routes, route{suffix: name, to: to, labels: name.CountLabels()})
		}
		// Longest (most-specific) suffix wins; ties keep spec order.
		sort.SliceStable(st.routes, func(i, j int) bool {
			return st.routes[i].labels > st.routes[j].labels
		})
		return st, nil
	})
}

func (s *routerStage) Resolve(ctx context.Context, q *Query) (Response, error) {
	for _, r := range s.routes {
		if q.Name == r.suffix || q.Name.IsSubdomainOf(r.suffix) {
			s.routed.Inc()
			return r.to.Resolve(ctx, q)
		}
	}
	return s.fallback.Resolve(ctx, q)
}
