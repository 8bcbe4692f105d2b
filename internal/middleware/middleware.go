// Package middleware turns the resolver datapath into a graph of small
// composable stages, the way routedns builds resolvers from pipeline
// elements: a query enters at one stage and flows stage to stage until a
// terminal stage answers it. Each stage is one policy — route by qname,
// answer from a blocklist or a static override, rate-limit a client, clamp
// TTLs — and hands everything else to its Next stage. Mechanism lives once,
// beneath the terminal stage: responses are cached by internal/cache and
// duplicate in-flight misses coalesced by the farm's flight.Group, which
// see stored lifetimes where a stage up here sees only displayed TTLs.
//
// The graph is config-driven: Build compiles a TOML-shaped text spec (see
// the graph.go grammar) into a Pipeline whose terminal "resolver" stage
// calls whatever Lookup function the host provides — a single iterative
// resolver or a whole farm frontend. The zero-config Default pipeline is
// exactly one terminal stage, so a Client built without a spec resolves
// byte-for-byte as the pre-middleware facade did (pinned by the
// chaos-scenario equivalence tests).
//
// Every stage reports under "mw.<stage-name>.*" in the shared obs
// registry, and stages annotate the resolution's span tree so /trace and
// the query log show which stage answered.
package middleware

import (
	"context"
	"net/netip"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
)

// Query is one client question entering the pipeline. Client is the
// requesting address as seen by the listener; stages that key on it (the
// per-client rate limiter) skip queries whose Client is the zero Addr —
// in-process library lookups with no network client.
//
// Into, when non-nil, is storage the caller lends for the answer: the
// terminal stage resolves into it (resolver.ResolveInto) and a stage that
// answers the query itself builds its Result there. The caller reuses it
// once it has read the Response.
type Query struct {
	Name   dnswire.Name
	Type   dnswire.Type
	Client netip.Addr
	Into   *resolver.Result
}

// Verdict classifies how the pipeline terminated a query, for qlog
// outcome labeling and daemon accounting.
type Verdict uint8

const (
	// VerdictResolved: the query traversed the whole chain and was
	// answered by the terminal resolver stage (from cache or upstream).
	VerdictResolved Verdict = iota
	// VerdictBlocked: a blocklist or static-answer stage answered without
	// consulting the resolver.
	VerdictBlocked
	// VerdictLimited: the per-client rate limiter refused (or dropped)
	// the query.
	VerdictLimited
)

// String returns the verdict's qlog-friendly spelling.
func (v Verdict) String() string {
	switch v {
	case VerdictBlocked:
		return "blocked"
	case VerdictLimited:
		return "limited"
	}
	return "resolved"
}

// Response is a pipeline answer: the resolver Result (message plus trace)
// and the middleware bookkeeping around it.
type Response struct {
	*resolver.Result
	// Verdict says how the pipeline produced this response.
	Verdict Verdict
	// Drop asks the caller to send nothing at all — the rate limiter's
	// "drop" action. Result still carries a REFUSED message for callers
	// (tests, in-process lookups) that must return something.
	Drop bool
}

// Stage is one element of the graph. Stages hold their own Next reference
// (wired by the graph builder), so Resolve needs no chain argument: a
// stage either answers q itself or delegates to its Next.
//
// Implementations must be safe for concurrent use: one Stage instance
// serves every client of a frontend.
type Stage interface {
	// Name returns the instance name the spec assigned (metrics and span
	// annotations use it).
	Name() string
	// Resolve answers the query or passes it down the chain. An error
	// comes with the zero Response (nil Result). q and its Into belong to
	// the caller, who reuses them once it has read the Response: stages
	// must not retain either.
	Resolve(ctx context.Context, q *Query) (Response, error)
}

// LookupFunc is the terminal resolution the pipeline wraps — a farm
// frontend's resolve leg, or a bare resolver's ResolveInto. ctx is the
// query's, as the pipeline got it, and dst its Into.
type LookupFunc func(ctx context.Context, dst *resolver.Result, name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error)

// Env is everything the graph builder hands to stage constructors.
type Env struct {
	// LookupContext is the terminal datapath the "resolver" stage calls.
	LookupContext LookupFunc
	// Lookup is the context-free form with no lent storage (a bare
	// resolver's Resolve), used only when LookupContext is nil.
	Lookup func(name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error)
	// Clock drives rate-limiter refill; nil means wall time.
	Clock simnet.Clock
	// Registry, when non-nil, backs each stage's mw.<name>.* counters.
	Registry *obs.Registry
}

// lookup is the terminal datapath: LookupContext, or else Lookup wrapped
// once, at build time, to drop the query's context and storage.
func (e Env) lookup() LookupFunc {
	if e.LookupContext != nil || e.Lookup == nil {
		return e.LookupContext
	}
	return func(_ context.Context, _ *resolver.Result, name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error) {
		return e.Lookup(name, qtype)
	}
}

func (e Env) clock() simnet.Clock {
	if e.Clock == nil {
		return simnet.WallClock{}
	}
	return e.Clock
}

// Pipeline is a compiled stage graph with a single entry point.
type Pipeline struct {
	entry  Stage
	stages []Stage // every stage, in spec order (entry may be any of them)
}

// Resolve runs the query through the graph.
func (p *Pipeline) Resolve(ctx context.Context, q *Query) (Response, error) {
	return p.entry.Resolve(ctx, q)
}

// Stages lists the instance names in spec order — "resolver" alone for
// the default pipeline.
func (p *Pipeline) Stages() []string {
	out := make([]string, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.Name()
	}
	return out
}

// Default builds the zero-config pipeline: one terminal resolver stage.
// It adds two pointer hops and no behavior to the wrapped datapath.
func Default(env Env) *Pipeline {
	t := &resolverStage{base: base{name: "resolver"}, lookup: env.lookup()}
	return &Pipeline{entry: t, stages: []Stage{t}}
}

// refused builds the REFUSED message every policy-refusal path returns,
// into q.Into when the caller lent it.
func refused(q *Query) *resolver.Result {
	res := resolver.NewResult(q.Into, q.Name, q.Type)
	res.Msg.Header.RCode = dnswire.RCodeRefused
	return res
}

// copyMsg copies a message with a fresh answer section — the one section a
// stage rewrites (ttlmod), and the only one a client Result carries
// (TestClientResultsCarryAnswersOnly) — so a rewrite never mutates a message
// that may be shared with a cache entry or a coalesced follower.
func copyMsg(m *dnswire.Message) *dnswire.Message {
	cp := *m
	cp.Answer = append([]dnswire.RR(nil), m.Answer...)
	return &cp
}
