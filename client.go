package dnsttl

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net/netip"
	"strings"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/cache"
	"dnsttl/internal/farm"
	"dnsttl/internal/middleware"
	"dnsttl/internal/obs"
	"dnsttl/internal/qlog"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/transport"
	"dnsttl/internal/zone"
)

// Result is a completed client resolution: the response message plus the
// trace the paper's measurements are built from (latency, cache hit,
// answered TTL, final server).
type Result = resolver.Result

// Exchanger moves one wire-format query to a server and returns the reply;
// both the in-memory simulation network and TransportNet implement it.
type Exchanger = simnet.Exchanger

// ClientConfig configures a Client.
type ClientConfig struct {
	// Policy selects the behavioral family; zero value means
	// DefaultPolicy.
	Policy Policy
	// Roots are the root server addresses to iterate from.
	Roots []netip.Addr
	// Net carries queries; nil means real UDP on port 53, over a pooled
	// TransportUDP net the client builds and its Close releases.
	Net Exchanger
	// Clock drives TTL decay; nil means wall clock.
	Clock Clock
	// LocalRoot is the RFC 7706 mirror; a policy with LocalRoot set
	// requires it.
	LocalRoot *Zone
	// Frontends is the number of recursive frontends behind the client's
	// one balancer (the paper's §4.4 public resolver shape). 0 or 1 is the
	// classic lone resolver — the farm of one.
	Frontends int
	// Topology selects how much cache the farm frontends share (private —
	// the zero value — shared, or FarmSharded; its text form is the
	// -cache-topology spelling); with one frontend every topology is one
	// cache.
	Topology FarmTopology
	// Coalesce makes identical queries that miss the cache together, on
	// whichever frontends, wait for one upstream iteration and share its
	// answer.
	Coalesce bool
	// CacheCapacity bounds the cache entry count (per frontend for a
	// private topology, per shard for FarmSharded, total otherwise); 0 keeps
	// the cache default.
	CacheCapacity int
	// CacheBytes bounds the cache memory charge (wire-format record bytes
	// plus index overhead), with the same per-frontend/per-shard/total
	// semantics as CacheCapacity; 0 means unbounded.
	CacheBytes int64
	// Eviction selects the cache eviction policy (EvictLRU, EvictSLRU);
	// the zero value is the legacy FIFO.
	Eviction EvictionPolicy
	// Registry, when non-nil, collects the client's telemetry — resolution
	// counters, latency/TTL histograms, cache metrics, and the per-frontend
	// fleet counters (farm.fe<i>.*) — for /metrics-style introspection.
	Registry *Registry
	// Tracer, when non-nil, records each resolution's lifecycle as a span
	// tree retrievable by name (the /trace endpoint, dnsq -trace).
	Tracer *Tracer
	// QueryLog, when non-nil, captures one structured record per upstream
	// exchange the client's resolver(s) perform (see NewQueryLog and the
	// Logger's Tap method). Nil disables capture at the cost of one pointer
	// check per exchange.
	QueryLog *QueryLogTap
	// Pipeline is a middleware graph spec (see docs/middleware.md) run in
	// front of the resolver datapath: blocklists, per-client rate limits,
	// static overrides, TTL clamps. Empty keeps the default pipeline —
	// a bare pass-through that resolves byte-for-byte like a pipelineless
	// client.
	Pipeline string
}

// Registry is the telemetry metrics registry shared by the resolver, farm,
// cache, and authoritative server (see internal/obs).
type Registry = obs.Registry

// Tracer records query lifecycles as span trees.
type Tracer = obs.Tracer

// NewRegistry builds a metrics registry; a nil clock means wall time.
func NewRegistry(clock Clock) *Registry { return obs.NewRegistry(clock) }

// NewTracer builds a lifecycle tracer; a nil clock means wall time.
func NewTracer(clock Clock) *Tracer { return obs.NewTracer(clock) }

// ServeMetrics starts an HTTP introspection listener on addr (":0" picks a
// port) exposing /metrics from reg, /trace from tr (either may be nil) and
// windowed /metrics?window= rates over the registry snapshots it takes
// every 10 s. It returns the bound address and a close function.
func ServeMetrics(addr string, reg *Registry, tr *Tracer) (string, func() error, error) {
	return obs.Serve(addr, reg, tr)
}

// QueryLog is the structured query-log pipeline: an async lock-free ring
// feeding JSONL or binary size-rotated log files (see internal/qlog).
type QueryLog = qlog.Logger

// QueryLogConfig parameterizes NewQueryLog.
type QueryLogConfig = qlog.Config

// QueryLogTap is a transport-labeled capture handle produced by
// (*QueryLog).Tap; ClientConfig accepts one.
type QueryLogTap = qlog.Tap

// QueryLogRecord is one captured query-log event.
type QueryLogRecord = qlog.Record

// NewQueryLog opens a structured query log (see QueryLogConfig for the
// rotation, sampling, and encoding knobs). Close it to flush.
func NewQueryLog(cfg QueryLogConfig) (*QueryLog, error) { return qlog.New(cfg) }

// ReadQueryLog decodes every record across the given query-log files
// (auto-detecting JSONL vs binary), returning the records and the count of
// undecodable entries.
func ReadQueryLog(paths ...string) ([]QueryLogRecord, int, error) { return qlog.ReadAll(paths...) }

// QueryLogFormat selects the query-log on-disk encoding.
type QueryLogFormat = qlog.Format

// QueryLogPointMask selects which capture points a query log records.
type QueryLogPointMask = qlog.PointMask

// FarmTopology selects the farm cache design; see the Farm* constants.
type FarmTopology = farm.Topology

// FarmSharded is the hash-partitioned farm cache topology, re-exported for
// ClientConfig.
const FarmSharded = farm.Sharded

// FarmStats is the fleet telemetry snapshot (per-frontend + aggregate).
type FarmStats = farm.Stats

// EvictionPolicy selects how caches order entries for eviction under
// memory pressure.
type EvictionPolicy = cache.EvictionPolicy

// Cache eviction policies, re-exported for ClientConfig.
const (
	EvictLRU  = cache.EvictLRU
	EvictSLRU = cache.EvictSLRU
)

// Client is an iterative caching DNS resolver — the library's front door
// for resolution. It is always a resolver farm behind one Lookup
// (internal/farm): ClientConfig.Frontends recursive frontends, one for the
// classic lone resolver. Every resolution runs through the placed
// frontend's middleware pipeline (internal/middleware); the zero-config
// default pipeline is a bare wrapper over the resolver datapath.
type Client struct {
	f *farm.Farm

	// net carries every upstream exchange. owned is that same net when
	// NewClient built it (ClientConfig.Net was nil), for Close to release.
	net   Exchanger
	owned *TransportNet
	// clock is ClientConfig.Clock, which a push subscriber attached by
	// EnablePush shares.
	clock Clock

	// registry is ClientConfig.Registry, kept for the listeners a
	// RecursiveServer puts in front of this client.
	registry *Registry
}

// NewClient builds a Client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Roots) == 0 {
		return nil, fmt.Errorf("dnsttl: NewClient requires at least one root address")
	}
	if cfg.Policy.LocalRoot && cfg.LocalRoot == nil {
		return nil, fmt.Errorf("dnsttl: Policy.LocalRoot requires ClientConfig.LocalRoot")
	}
	var owned *TransportNet
	if cfg.Net == nil {
		n, err := NewTransportNet(TransportUDP, TransportOptions{})
		if err != nil {
			return nil, err
		}
		owned, cfg.Net = n, n
	}
	if cfg.Policy == (Policy{}) {
		cfg.Policy = DefaultPolicy()
	}
	f := farm.New(farm.Config{
		Frontends:     cfg.Frontends,
		Topology:      cfg.Topology,
		Coalesce:      cfg.Coalesce,
		Policy:        cfg.Policy,
		CacheCapacity: cfg.CacheCapacity,
		CacheBytes:    cfg.CacheBytes,
		Eviction:      cfg.Eviction,
		LocalRoot:     cfg.LocalRoot,
		Seed:          1, // server selection and query IDs replay run to run
		Registry:      cfg.Registry,
		Tracer:        cfg.Tracer,
		QueryLog:      cfg.QueryLog,
	}, netip.MustParseAddr("127.0.0.1"), cfg.Net, cfg.Clock, cfg.Roots)
	c := &Client{f: f, net: cfg.Net, owned: owned, clock: cfg.Clock, registry: cfg.Registry}
	if err := f.SetPipeline(cfg.Pipeline); err != nil {
		_ = c.Close() // no socket is open yet
		return nil, err
	}
	return c, nil
}

// Close releases the pooled sockets of the net NewClient built because
// ClientConfig.Net was nil; lookups that miss the cache fail from then on. A
// caller-supplied Net is left open: whoever built it closes it. Close is
// idempotent.
func (c *Client) Close() error {
	if c.owned == nil {
		return nil
	}
	return c.owned.Close()
}

// Lookup resolves (name, qtype), from cache when possible. In-process
// lookups carry no client address, so client-keyed pipeline stages (the
// rate limiter) pass them untouched.
func (c *Client) Lookup(name Name, qtype Type) (*Result, error) {
	return c.LookupFrom(name, qtype, netip.Addr{})
}

// LookupFrom is Lookup on behalf of a network client: the pipeline sees
// the client address, so blocklists, per-client rate limits, and qlog
// attribution apply as they would for a wire query.
func (c *Client) LookupFrom(name Name, qtype Type, client netip.Addr) (*Result, error) {
	return c.f.ResolveFrom(name, qtype, client)
}

// SetPipeline compiles spec and swaps the client onto it atomically; an
// invalid spec is rejected with the active pipeline untouched (the
// resolverd SIGHUP-reload contract). The empty spec restores the default
// pass-through pipeline.
func (c *Client) SetPipeline(spec string) error { return c.f.SetPipeline(spec) }

// PipelineStages lists the active pipeline's stage names in spec order —
// ["resolver"] for the default pipeline.
func (c *Client) PipelineStages() []string { return c.f.PipelineStages() }

// CheckPipeline validates a middleware graph spec without building a
// client — daemons use it to vet a -pipeline file before (re)loading.
func CheckPipeline(spec string) error { return middleware.Check(spec) }

// CacheStats reports the client's cache counters, aggregated over every
// frontend.
func (c *Client) CacheStats() CacheStats { return c.f.CacheStats() }

// FarmStats reports fleet telemetry. ok is false for a lone resolver (one
// frontend), whose fleet table would only repeat CacheStats.
func (c *Client) FarmStats() (st FarmStats, ok bool) {
	if c.f.Frontends() < 2 {
		return FarmStats{}, false
	}
	return c.f.Stats(), true
}

// CacheStats is the cache counter snapshot.
type CacheStats = cache.Stats

// Server is an authoritative DNS server for a set of zones, servable over
// real UDP, TCP, DoT, and DoH, or pluggable into a simulation.
type Server struct {
	s   *authoritative.Server
	reg *Registry // from Instrument, for the UDP listener's metrics
	ql  *QueryLog // from AttachQueryLog, tapped per listener
	ls  authoritative.Listeners
}

// NewServer creates a server named after its primary nameserver host.
func NewServer(name Name, clock Clock) *Server {
	return &Server{s: authoritative.NewServer(name, clock)}
}

// AddZone makes the server authoritative for z.
func (s *Server) AddZone(z *Zone) { s.s.AddZone(z) }

// ParseZone reads a master-file zone.
func ParseZone(text string, origin Name) (*Zone, error) {
	return zone.Parse(strings.NewReader(text), origin)
}

// ListenUDP binds addr ("127.0.0.1:0" style) and serves until Close. It
// returns the bound address.
func (s *Server) ListenUDP(addr string) (netip.AddrPort, error) {
	return s.ls.UDP(addr, s.handler("udp", false), s.reg)
}

// ListenTCP binds addr for the TCP transport and serves until Close,
// returning the bound address. Clients retry a truncated UDP answer over TCP
// on the same port, so the fallback is served only from the UDP listener's
// port.
func (s *Server) ListenTCP(addr string) (netip.AddrPort, error) {
	return s.ls.TCP(addr, s.handler("tcp", true), nil, s.reg)
}

// ListenDoT binds addr for DNS-over-TLS service (RFC 7858) with the given
// TLS config, serving until Close.
func (s *Server) ListenDoT(addr string, cfg *tls.Config) (netip.AddrPort, error) {
	return s.ls.TCP(addr, s.handler("dot", true), cfg, s.reg)
}

// ListenDoH binds addr for DNS-over-HTTPS service (RFC 8484) with the
// given TLS config, serving until Close.
func (s *Server) ListenDoH(addr string, cfg *tls.Config) (netip.AddrPort, error) {
	return s.ls.DoH(addr, s.handler("doh", true), cfg)
}

// handler is the handler of one listener: the query log's tap carries the
// transport label, stream the response size limit and the RRL exemption.
func (s *Server) handler(transport string, stream bool) simnet.Handler {
	return s.s.Handler(s.ql.Tap(transport), stream)
}

// SelfSignedTLS mints an ephemeral server certificate for the given hosts
// plus a client CertPool trusting it — the batteries for DoT/DoH test and
// demo setups without a real PKI.
func SelfSignedTLS(hosts ...string) (tls.Certificate, *x509.CertPool, error) {
	return transport.SelfSigned(hosts...)
}

// QueryCount reports queries handled.
func (s *Server) QueryCount() uint64 { return s.s.QueryCount() }

// RRLConfig configures authoritative response rate limiting; see
// internal/authoritative's rrl.go for band semantics.
type RRLConfig = authoritative.RRLConfig

// ParseRRLConfig parses "rps=5,burst=15,slip=2,prefix4=24,prefix6=56"
// flag syntax ("default" or "" for the defaults).
func ParseRRLConfig(s string) (RRLConfig, error) { return authoritative.ParseRRLConfig(s) }

// EnableRRL turns on response rate limiting for UDP responses: limited
// responses are dropped, except every slip-th which goes out truncated so
// honest clients can fall back to TCP (TCP is never limited).
func (s *Server) EnableRRL(cfg RRLConfig) { s.s.EnableRRL(cfg) }

// Instrument publishes the server's counters in reg (auth.queries,
// auth.referrals, auth.nxdomain, auth.refused, auth.rrl_*); it is safe while
// the server serves. A ListenUDP that follows also reports its serving loops
// there (listener.udp.*).
func (s *Server) Instrument(reg *Registry) {
	s.reg = reg
	s.s.Instrument(reg)
}

// AttachQueryLog captures one structured response-out record per handled
// query into ql, labelled with the transport of the listener the query came
// in on — the paper's §3.4 authoritative-side capture. It applies to the
// listeners bound after it.
func (s *Server) AttachQueryLog(ql *QueryLog) { s.ql = ql }

// Close drains every listener: each stops accepting, queries already in
// service are answered, idle connections are closed at once. It returns nil
// after a clean drain, also when nothing was listening.
func (s *Server) Close() error { return s.ls.Close() }
