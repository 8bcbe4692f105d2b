// Package farm models a public resolver service the way the paper's §4.4
// infrastructure analysis found them deployed: not one recursive resolver
// but a *farm* of N frontends behind one service address, each running the
// full iterative resolver, with a load balancer sending each client query to
// a random frontend and a cache topology deciding how much of the fleet's
// cache those frontends share.
//
// The topology is the whole story of the paper's fragmentation finding:
// with private per-frontend caches a record must be fetched from the
// authoritative servers once per frontend, so short TTLs multiply
// authoritative load by the farm size; with a shared or hash-partitioned
// sharded cache the fleet behaves like one big resolver and authoritative
// load is flat in the frontend count. In-flight query coalescing
// (internal/flight) closes the remaining gap: concurrent identical misses
// trigger one upstream iteration instead of N.
//
// A lone recursive resolver is the farm of one: the facade's Client always
// resolves through a Farm, and with a single frontend the balancer always
// picks frontend 0. The measurement fleet's shared public resolvers
// (atlas.NewFleet) are Farms too — this is the repo's only farm model.
package farm

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/flight"
	"dnsttl/internal/middleware"
	"dnsttl/internal/obs"
	"dnsttl/internal/qlog"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

// Topology selects how much cache the farm's frontends share.
type Topology uint8

const (
	// Private gives every frontend its own cache — the fragmented design
	// whose authoritative-load blowup at short TTLs §4.4 observes.
	Private Topology = iota
	// Shared backs every frontend with one cache (one lock): the fleet
	// acts as a single resolver, at the cost of hot-path contention.
	Shared
	// Sharded backs the fleet with a hash-partitioned cache pool
	// (cache.Sharded) of one shard per frontend: shared capacity and hit
	// rate, per-shard locking.
	Sharded
)

// topologyNames is each Topology's one spelling (the -cache-topology
// values). String, MarshalText and UnmarshalText all read it.
var topologyNames = [...]string{Private: "private", Shared: "shared", Sharded: "sharded"}

func (t Topology) String() string {
	if int(t) < len(topologyNames) {
		return topologyNames[t]
	}
	return fmt.Sprintf("Topology(%d)", uint8(t))
}

func (t Topology) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

func (t *Topology) UnmarshalText(b []byte) error {
	i := slices.Index(topologyNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("farm: unknown cache topology %q (want one of %q)", b, topologyNames)
	}
	*t = Topology(i)
	return nil
}

// Config sizes and shapes a Farm.
type Config struct {
	// Frontends is the number of recursive frontends; values below 1 mean 1.
	Frontends int
	// Topology selects the cache design; see the constants.
	Topology Topology
	// Coalesce enables farm-wide in-flight coalescing: identical queries
	// that miss the cache while one is already iterating wait for its
	// answer instead of iterating themselves.
	Coalesce bool
	// Policy configures every frontend identically.
	Policy resolver.Policy
	// CacheCapacity bounds each cache (per frontend for Private, per shard
	// for Sharded, total for Shared); 0 keeps the cache default.
	CacheCapacity int
	// CacheBytes bounds each cache's memory charge, with the same
	// per-frontend/per-shard/total semantics as CacheCapacity; 0 means
	// unbounded.
	CacheBytes int64
	// Eviction selects the eviction policy of every cache in the fleet;
	// the zero value is the legacy FIFO.
	Eviction cache.EvictionPolicy
	// LocalRoot is the RFC 7706 root mirror handed to every frontend when
	// the policy enables LocalRoot.
	LocalRoot *zone.Zone
	// Seed drives frontend RNGs and the balancer's random placement.
	Seed int64
	// Registry, when non-nil, publishes the fleet telemetry (the farm.fe<i>.*
	// counters and their resolver.* sums, the resolver metrics shared by all
	// frontends, the cache.* metrics) so /metrics and the experiments read
	// the same numbers Stats reports.
	Registry *obs.Registry
	// Tracer, when non-nil, records every frontend resolution as a span
	// tree retrievable via /trace.
	Tracer *obs.Tracer
	// QueryLog, when non-nil, is handed to every frontend so each upstream
	// exchange emits one qlog record (attributed per frontend by source
	// address).
	QueryLog *qlog.Tap
}

func (c Config) frontends() int {
	if c.Frontends < 1 {
		return 1
	}
	return c.Frontends
}

// Farm is a fleet of recursive frontends behind one load balancer,
// implementing resolver.Lookuper so it drops in anywhere a single Resolver
// does.
type Farm struct {
	cfg       Config
	frontends []*resolver.Resolver
	balancer  *balancer
	store     cache.Store // nil for Private topology
	telemetry *telemetry
	clock     simnet.Clock

	// flight coalesces identical in-flight cache misses when cfg.Coalesce
	// is set (every frontend's resolver.Coalesce enters it). It is keyed
	// across frontends on purpose: N concurrent clients asking for one cold
	// name cost the authoritatives one iteration, whichever frontends the
	// balancer spread them over.
	flight flight.Group[cache.Key, *resolver.Result]

	// Every query flows through a middleware pipeline, one instance per
	// frontend (each frontend is its own process in the deployment the
	// farm models, so stage state — rate-limit buckets — is per-frontend),
	// swapped as one slice by SetPipeline. The default pipeline is a single
	// terminal stage wrapping resolveLeg, adding no behavior to the bare
	// resolver datapath.
	pipelines atomic.Pointer[[]*middleware.Pipeline]
}

// New builds a farm. Frontend i sources its queries from addr+i, so taps
// and authoritative logs can attribute traffic per frontend. The net,
// clock, and roots are shared by all frontends, as in one datacenter.
func New(cfg Config, addr netip.Addr, net simnet.Exchanger, clock simnet.Clock, roots []netip.Addr) *Farm {
	if clock == nil {
		clock = simnet.WallClock{}
	}
	n := cfg.frontends()
	f := &Farm{
		cfg:       cfg,
		frontends: make([]*resolver.Resolver, n),
		balancer:  newBalancer(n, cfg.Seed),
		telemetry: newTelemetry(n, cfg.Registry),
		clock:     clock,
	}

	// One storage config for every topology, derived the same way
	// resolver.New derives it from the policy, plus the fleet's bounds.
	ccfg := cfg.Policy.CacheConfig()
	ccfg.Capacity = cfg.CacheCapacity
	ccfg.MaxBytes = cfg.CacheBytes
	ccfg.Eviction = cfg.Eviction
	switch cfg.Topology {
	case Shared:
		f.store = cache.New(clock, ccfg)
	case Sharded:
		f.store = cache.NewSharded(clock, ccfg, n)
	}

	// All frontends share one resolver metric set: the fleet is one service,
	// and the paper's quantities (latency, answer TTL, upstream volume) are
	// service-level.
	met := resolver.NewMetrics(cfg.Registry)
	for i := 0; i < n; i++ {
		r := resolver.New(addr, cfg.Policy, net, clock, roots, cfg.Seed+int64(i)*7919)
		if cfg.Policy.LocalRoot {
			r.LocalRootZone = cfg.LocalRoot
		}
		r.Obs = met
		r.Tracer = cfg.Tracer
		r.QLog = cfg.QueryLog
		if f.store != nil {
			r.Cache = f.store
		} else if cfg.CacheCapacity > 0 || cfg.CacheBytes > 0 || cfg.Eviction != cache.EvictFIFO {
			r.Cache = cache.New(clock, ccfg)
		}
		if cfg.Coalesce {
			onJoin := func() { f.telemetry.coalesced(i) }
			r.Coalesce = func(k cache.Key, lead func() (*resolver.Result, error)) (*resolver.Result, error, bool) {
				return f.flight.Do(k, onJoin, lead)
			}
		}
		f.frontends[i] = r
		addr = addr.Next()
	}
	pipelines := make([]*middleware.Pipeline, n)
	for i := range pipelines {
		pipelines[i] = middleware.Default(f.env(i))
	}
	f.pipelines.Store(&pipelines)
	cache.Instrument(cfg.Registry, f.CacheStats)
	return f
}

// env is the middleware environment for frontend idx's pipeline: the
// terminal stage resolves through resolveLeg (the balancer already ran).
func (f *Farm) env(idx int) middleware.Env {
	return middleware.Env{
		LookupContext: f.resolveLeg(idx),
		Clock:         f.clock,
		Registry:      f.cfg.Registry,
	}
}

// resolveLeg is frontend idx's raw resolution path — its iterative
// resolver (which enters the flight group on a cache miss when coalescing
// is on), then fleet accounting; a follower was booked when it joined.
func (f *Farm) resolveLeg(idx int) middleware.LookupFunc {
	fe := f.frontends[idx]
	return func(ctx context.Context, dst *resolver.Result, name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error) {
		res, err := fe.ResolveInto(ctx, dst, name, qtype)
		if res != nil && !res.Coalesced {
			f.telemetry.served(idx, &res.Trace)
		}
		return res, err
	}
}

// SetPipeline compiles spec into one pipeline instance per frontend and
// swaps the fleet onto them atomically. An invalid spec changes nothing —
// the SIGHUP-reload contract. The empty spec restores the default
// pipeline.
func (f *Farm) SetPipeline(spec string) error {
	fresh := make([]*middleware.Pipeline, len(f.frontends))
	for i := range fresh {
		p, err := middleware.Build(spec, f.env(i))
		if err != nil {
			return err
		}
		fresh[i] = p
	}
	f.pipelines.Store(&fresh)
	return nil
}

// PipelineStages lists the stage names of the active pipeline.
func (f *Farm) PipelineStages() []string {
	return (*f.pipelines.Load())[0].Stages()
}

// ResolveQuery answers a client query through the frontend the balancer
// picks, running that frontend's middleware pipeline — the
// datapath behind every farm resolution.
func (f *Farm) ResolveQuery(ctx context.Context, q *middleware.Query) (middleware.Response, error) {
	return (*f.pipelines.Load())[f.balancer.pick()].Resolve(ctx, q)
}

// Frontends returns the farm size.
func (f *Farm) Frontends() int { return len(f.frontends) }

// Resolve is ResolveInto with the background context and no lent
// storage: the Result is the caller's to keep.
func (f *Farm) Resolve(name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error) {
	return f.ResolveInto(context.Background(), nil, name, qtype)
}

// ResolveInto answers (name, qtype) through the frontend the balancer
// picks, running its middleware pipeline (by default a bare wrapper over
// the coalescing resolve path) with dst as the query's lent storage (see
// resolver.Resolver.ResolveInto) — resolver.Lookuper for in-process use,
// with no client address for client-keyed stages.
func (f *Farm) ResolveInto(ctx context.Context, dst *resolver.Result, name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error) {
	return f.resolve(ctx, middleware.Query{Name: name, Type: qtype, Into: dst})
}

// ResolveFrom is Resolve on behalf of client, whom client-keyed stages (the
// rate limiter, qlog attribution) see.
func (f *Farm) ResolveFrom(name dnswire.Name, qtype dnswire.Type, client netip.Addr) (*resolver.Result, error) {
	return f.resolve(context.Background(), middleware.Query{Name: name, Type: qtype, Client: client})
}

// queryPool lends resolve the Query it hands the pipeline, as the wire
// path's serving scratch lends its own: no stage keeps a Query past its
// Resolve (middleware.Stage).
var queryPool = sync.Pool{New: func() any { return new(middleware.Query) }}

// resolve runs query through ResolveQuery in a pooled Query.
func (f *Farm) resolve(ctx context.Context, query middleware.Query) (*resolver.Result, error) {
	q := queryPool.Get().(*middleware.Query)
	*q = query
	resp, err := f.ResolveQuery(ctx, q)
	*q = middleware.Query{} // the pool keeps no caller's storage
	queryPool.Put(q)
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// Stores returns the fleet's cache stores — the single shared (or sharded)
// store, or one store per frontend for the Private topology. A push
// subscriber purging through exactly this set invalidates the whole fleet,
// whatever the topology.
func (f *Farm) Stores() []cache.Store {
	if f.store != nil {
		return []cache.Store{f.store}
	}
	out := make([]cache.Store, len(f.frontends))
	for i, fe := range f.frontends {
		out[i] = fe.Cache
	}
	return out
}

// SetStaleGate installs g on every frontend, so fleet-wide serve-stale
// decisions consult the push plane's subscription health and purge record.
// Safe while queries are being served.
func (f *Farm) SetStaleGate(g resolver.StaleGate) {
	for _, fe := range f.frontends {
		fe.SetStaleGate(g)
	}
}

// CacheStats aggregates the cache counters of the whole fleet.
func (f *Farm) CacheStats() cache.Stats {
	if f.store != nil {
		return f.store.Stats()
	}
	var out cache.Stats
	for _, fe := range f.frontends {
		out.Add(fe.Cache.Stats())
	}
	return out
}

var _ resolver.Lookuper = (*Farm)(nil)
