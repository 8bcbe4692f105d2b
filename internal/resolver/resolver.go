package resolver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsttl/internal/bucket"
	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/flight"
	"dnsttl/internal/obs"
	"dnsttl/internal/qlog"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

// Trace accounts for one client resolution: what it cost and where the
// answer came from. Experiments read Traces to build the paper's latency
// CDFs and server-switch timeseries.
type Trace struct {
	// CacheHit is true when the client answer required no upstream query.
	CacheHit bool
	// Stale is true when the answer was served past its TTL (RFC 8767).
	Stale bool
	// Coalesced is true when the resolution was answered by joining an
	// identical query already in flight (farm Coalesce) instead of by the
	// cache or an upstream iteration of its own.
	Coalesced bool
	// yielded is set where the resolution first may wait (see SetYield).
	yielded bool
	// Latency is the summed upstream RTT the resolution cost the client.
	Latency time.Duration
	// Queries is the number of upstream exchanges attempted.
	Queries int
	// Timeouts is how many of those exchanges timed out.
	Timeouts int
	// Retries counts attempts past the first within iteration steps — the
	// work the retry plane (Policy.Retry) added to rescue this resolution.
	Retries int
	// Hedges counts hedged second queries launched (Policy.Retry.Hedge).
	Hedges int
	// FinalServer is the authoritative address that supplied the answer,
	// or the zero Addr for cache hits.
	FinalServer netip.Addr
	// AnswerTTL is the TTL carried by the first answer record returned to
	// the client (decayed, for cache hits) — the quantity measured by the
	// paper's Figures 1 and 2.
	AnswerTTL uint32
	// Validated is true when DNSSEC validation succeeded for the answer.
	Validated bool
	// Span is the root of this resolution's lifecycle trace; nil unless the
	// resolver has a Tracer attached. Read-only once the resolution returns.
	Span *obs.Span
}

// Result is a completed resolution.
type Result struct {
	Msg *dnswire.Message
	Trace
}

// Follower is the Result a caller that joined r's in-flight resolution
// (internal/flight) gets: its own copy marked Coalesced, charged none of
// the leader's upstream cost. The message is the leader's, shared and
// never written — serve paths stamp each client's ID into the encoded
// bytes. A nil r (the leader failed) stays nil.
func (r *Result) Follower() *Result {
	if r == nil {
		return nil
	}
	cp := *r
	cp.CacheHit = false
	cp.Coalesced = true
	cp.Queries = 0
	cp.Timeouts = 0
	cp.Retries = 0
	cp.Hedges = 0
	return &cp
}

// Lookuper is anything that can answer a client resolution — a full
// iterative Resolver or a farm of them. Vantage points hold a Lookuper,
// matching the paper's observation (§4.4) that clients sit behind
// "multiple levels of resolvers".
type Lookuper interface {
	Resolve(name dnswire.Name, qtype dnswire.Type) (*Result, error)
}

var _ Lookuper = (*Resolver)(nil)

// Resolver is an iterative caching resolver.
type Resolver struct {
	// Addr is the resolver's own address, used as the query source.
	Addr netip.Addr
	// Policy configures behavior; see Policy.
	Policy Policy
	// Net carries queries to servers.
	Net simnet.Exchanger
	// Clock drives TTL decay.
	Clock simnet.Clock
	// Cache may be shared between resolvers (a resolver farm behind one
	// frontend, as in §4.4). Any cache.Store works: a private *cache.Cache,
	// one *cache.Cache shared by a whole farm, or a *cache.Sharded pool.
	Cache cache.Store
	// RootHints are the root server addresses.
	RootHints []netip.Addr
	// LocalRootZone is the RFC 7706 mirror used when Policy.LocalRoot is
	// set.
	LocalRootZone *zone.Zone
	// Obs records the SERVFAIL, retry, hedge and prefetch counters and the
	// latency/TTL histograms. New attaches NewMetrics(nil), whose nil
	// handles record nothing; pass NewMetrics(reg) to export them. Never nil.
	Obs *Metrics
	// Tracer, when non-nil, records every resolution as a span tree —
	// cache lookup, per-zone iteration steps, upstream exchanges, and the
	// TTL decisions taken at each — retrievable via the tracer (and the
	// daemons' /trace endpoint). Nil keeps the hot path to one pointer
	// check per instrumentation point.
	Tracer *obs.Tracer
	// QLog, when non-nil, emits one qlog upstream-exchange record per
	// attempt (server, question, rcode, TTL, RTT, timeout/error outcome).
	// Nil costs one pointer check per attempt.
	QLog *qlog.Tap

	// Coalesce, when non-nil, is entered on a top-level cache miss: it runs
	// lead for the first caller of a key and hands later callers that
	// leader's Result (joined=true) — a farm's flight group. Hits never
	// reach it: a warm name takes no shared lock and is never a follower.
	Coalesce func(k cache.Key, lead func() (*Result, error)) (res *Result, err error, joined bool)

	// staleGate is consulted before serving a stale answer; see
	// SetStaleGate. Atomic because the push plane installs it while
	// listeners are already resolving.
	staleGate atomic.Pointer[StaleGate]

	// yield is SetYield's hook; atomic like staleGate.
	yield atomic.Pointer[func()]

	mu     sync.Mutex
	rng    *rand.Rand
	sticky map[dnswire.Name]netip.Addr
	nextID uint16

	// Refresh-ahead state (prefetch.go): the refreshes in flight, and the
	// Policy.PrefetchBudget bucket New builds (nil means unlimited).
	prefetching    flight.Group[cache.Key, *Result]
	prefetchBudget *bucket.Table[struct{}]

	// srtt is the per-server smoothed-RTT table behind
	// Policy.Retry.OrderBySRTT. It has its own lock; nil (for resolvers
	// built as struct literals) disables SRTT tracking.
	srtt *srttTable
}

// New builds a resolver. A nil cache gets a private one configured from the
// policy's TTL cap and serve-stale flag; a nil clock means wall time.
func New(addr netip.Addr, pol Policy, net simnet.Exchanger, clock simnet.Clock, roots []netip.Addr, seed int64) *Resolver {
	if clock == nil {
		clock = simnet.WallClock{}
	}
	c := cache.New(clock, pol.CacheConfig())
	r := &Resolver{
		Addr:      addr,
		Policy:    pol,
		Net:       net,
		Clock:     clock,
		Cache:     c,
		Obs:       NewMetrics(nil),
		RootHints: roots,
		rng:       rand.New(simnet.NewSource(seed)),
		sticky:    make(map[dnswire.Name]netip.Addr),
		srtt:      newSRTTTable(),
	}
	if n := float64(pol.PrefetchBudget); n > 0 {
		// Bursts of up to n refreshes, n per minute on average.
		r.prefetchBudget = bucket.NewTable[struct{}](n/time.Minute.Seconds(), n, clock)
	}
	return r
}

// maxDepth bounds subquery recursion (resolving NS-host addresses) and
// CNAME chains.
const maxDepth = 8

// maxSteps bounds referral chasing per resolution.
const maxSteps = 30

// Resolve answers (name, qtype) for a client, from cache when possible and
// by iterating from the roots otherwise.
func (r *Resolver) Resolve(name dnswire.Name, qtype dnswire.Type) (*Result, error) {
	// One allocation holds the Result, its Message, the question and room
	// for the usual one- or two-record answer; a longer answer section
	// grows onto the heap like any append. The block is not pooled: caches,
	// coalescers and callers retain and share Results.
	b := &struct {
		res      Result
		msg      dnswire.Message
		question [1]dnswire.Question
		answer   [2]dnswire.RR
	}{}
	b.question[0] = dnswire.Question{Name: name, Type: qtype, Class: dnswire.ClassIN}
	b.msg.Header = dnswire.Header{QR: true, RA: true}
	b.msg.Question = b.question[:]
	b.msg.Answer = b.answer[:0]
	b.res.Msg = &b.msg
	res := &b.res
	if r.Tracer != nil {
		res.Span = r.Tracer.Start("resolve " + string(name) + " " + qtype.String())
	}
	e, rem, _ := r.answerFromCache(name, qtype)
	if e != nil {
		return r.finish(res, r.resolveFrom(e, rem, name, qtype, res, 0)), nil
	}
	// A miss waits, on its upstream exchanges or on the flight it joins.
	r.mayWait(res)
	if r.Coalesce == nil {
		return r.finish(res, r.resolveFrom(nil, 0, name, qtype, res, 0)), nil
	}
	// A caller that missed just before the previous leader left the group
	// leads a second iteration; re-probing the cache here would count the
	// miss twice for every leader to close that window.
	lead, _, joined := r.Coalesce(cache.Key{Name: name, Type: qtype}, func() (*Result, error) {
		return r.finish(res, r.resolveFrom(nil, 0, name, qtype, res, 0)), nil
	})
	if joined {
		return lead.Follower(), nil
	}
	return lead, nil
}

// finish completes a top-level resolution: SERVFAIL on error, the answer
// TTL, the root span's summary, and the resolver metrics.
func (r *Resolver) finish(res *Result, err error) *Result {
	if err != nil {
		res.Msg.Header.RCode = dnswire.RCodeServFail
	}
	res.AnswerTTL = res.Msg.AnswerTTL()
	if sp := res.Span; sp != nil {
		sp.Annotate("rcode", res.Msg.Header.RCode.String())
		sp.AnnotateUint("answer_ttl_s", uint64(res.AnswerTTL))
		sp.AnnotateUint("upstream_queries", uint64(res.Queries))
		if res.Retries > 0 {
			sp.AnnotateUint("retries", uint64(res.Retries))
		}
		if res.Hedges > 0 {
			sp.AnnotateUint("hedges", uint64(res.Hedges))
		}
		r.Tracer.Keep(sp)
	}
	r.Obs.observeResolution(res)
	return res
}

// resolveInto resolves (name, qtype), appending answers to res.Msg and
// accounting into res.Trace. CNAME chains recurse with increased depth.
func (r *Resolver) resolveInto(name dnswire.Name, qtype dnswire.Type, res *Result, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("resolver: depth limit at %s", name)
	}
	e, rem, _ := r.answerFromCache(name, qtype)
	return r.resolveFrom(e, rem, name, qtype, res, depth)
}

// subResolve resolves (name, qtype) — an NS host's address, a signer's
// DNSKEY — into a scratch Result on res's behalf, and charges res every
// additive count of its Trace. The answer stays in the returned Result.
func (r *Resolver) subResolve(name dnswire.Name, qtype dnswire.Type, res *Result, depth int) (*Result, error) {
	sub := &Result{Msg: &dnswire.Message{}, Trace: Trace{yielded: res.yielded}}
	err := r.resolveInto(name, qtype, sub, depth)
	res.yielded = sub.yielded
	res.Latency += sub.Latency
	res.Queries += sub.Queries
	res.Timeouts += sub.Timeouts
	res.Retries += sub.Retries
	res.Hedges += sub.Hedges
	return sub, err
}

// resolveFrom continues a resolution from its cache probe: the cached
// answer e (rem seconds left) when there is one, an iteration when e is nil.
func (r *Resolver) resolveFrom(e *cache.Entry, rem uint32, name dnswire.Name, qtype dnswire.Type, res *Result, depth int) error {
	// 1. Cache.
	if e != nil {
		if depth == 0 {
			res.CacheHit = res.Queries == 0
		}
		if csp := res.Span.Child("cache lookup"); csp != nil {
			csp.Annotate("name", string(name))
			csp.Annotate("outcome", cacheOutcome(e))
			csp.Annotate("cred", e.Cred.String())
			csp.AnnotateUint("remaining_ttl_s", uint64(rem))
			csp.Finish()
		}
		r.applyCached(e, rem, name, qtype, res, depth)
		if e.Negative == cache.NotNegative && r.Policy.prefetchTriggered(rem, e.TTL) {
			r.maybePrefetch(name, qtype, res)
		}
		return nil
	}
	if csp := res.Span.Child("cache lookup"); csp != nil {
		csp.Annotate("name", string(name))
		csp.Annotate("outcome", "miss")
		csp.Finish()
	}

	// 2. Iterate from the best known servers.
	return r.iterate(name, qtype, res, depth)
}

// cacheOutcome labels a cache hit for the lifecycle trace.
func cacheOutcome(e *cache.Entry) string {
	switch e.Negative {
	case cache.NegNXDomain:
		return "hit-negative-nxdomain"
	case cache.NegNoData:
		return "hit-negative-nodata"
	}
	return "hit"
}

// applyCached copies a cache entry into the client answer with decayed TTLs,
// capped on the way out (a CapAtServe cap never reached storage).
func (r *Resolver) applyCached(e *cache.Entry, rem uint32, name dnswire.Name, qtype dnswire.Type, res *Result, depth int) {
	out := r.clampTTL(rem, res.Span)
	switch e.Negative {
	case cache.NegNXDomain:
		res.Msg.Header.RCode = dnswire.RCodeNXDomain
		return
	case cache.NegNoData:
		return
	}
	for _, rr := range e.RRs {
		rr.TTL = out
		res.Msg.AddAnswer(rr)
	}
	// Chase a cached CNAME.
	if e.Key.Type == dnswire.TypeCNAME && qtype != dnswire.TypeCNAME && len(e.RRs) > 0 {
		target := e.RRs[0].Data.(dnswire.CNAME).Target
		_ = r.resolveInto(target, qtype, res, depth+1)
	}
}

// answerCred is the least credibility cached data needs to answer the
// client. Child-centric resolvers only answer from answer-grade data;
// parent-centric resolvers also answer from referral NS sets and glue —
// unless they validate, since parent-side data carries no signatures
// (the §6.3 structural argument for child-centricity).
func (r *Resolver) answerCred() cache.Credibility {
	if r.Policy.Centricity == ParentCentric && !r.Policy.Validate {
		return cache.CredAdditional
	}
	return cache.CredAnswerNonAuth
}

// answerFromCache checks whether cached data may answer the client
// directly (see answerCred).
func (r *Resolver) answerFromCache(name dnswire.Name, qtype dnswire.Type) (*cache.Entry, uint32, bool) {
	minCred := r.answerCred()
	if e, rem, ok := r.Cache.Get(name, qtype); ok && e.Cred >= minCred {
		return e, rem, true
	}
	// A cached CNAME redirects any qtype (except CNAME itself).
	if qtype != dnswire.TypeCNAME {
		if e, rem, ok := r.Cache.Get(name, dnswire.TypeCNAME); ok && e.Cred >= minCred {
			return e, rem, true
		}
	}
	return nil, 0, false
}

// iterate walks the delegation tree toward (name, qtype). Its frame owns
// one query scratch for every step: a subResolve re-enters iterate and takes
// its own.
func (r *Resolver) iterate(name dnswire.Name, qtype dnswire.Type, res *Result, depth int) error {
	qs := acquireQueryScratch()
	defer releaseQueryScratch(qs)
	for step := 0; step < maxSteps; step++ {
		zoneName, servers := r.bestServers(name, res, depth, qs)

		ssp := res.Span.Child("step")
		if ssp != nil {
			ssp.AnnotateUint("n", uint64(step+1))
			ssp.Annotate("zone", string(zoneName))
		}

		var resp *dnswire.Message
		var server netip.Addr
		if r.Policy.LocalRoot && r.LocalRootZone != nil && zoneName.IsRoot() {
			// RFC 7706: the root step reads the local mirror instead of
			// asking a root server. Mirror data is parent data, so the
			// reply is not authoritative: nothing validates it, and it
			// is stored and shown like any non-authoritative reply.
			if ssp != nil {
				ssp.Annotate("source", "local-root-mirror")
			}
			resp = dnswire.AcquireMessage()
			r.LocalRootZone.Lookup(name, qtype).FillReply(resp)
			resp.Header.AA = false
		} else {
			if len(servers) == 0 {
				ssp.Annotate("outcome", "no-servers")
				ssp.Finish()
				return r.fail(name, qtype, res, fmt.Errorf("resolver: no servers for %s", zoneName))
			}
			var err error
			resp, server, err = r.exchangeAny(servers, name, qtype, res, ssp, qs)
			if err != nil {
				ssp.Annotate("outcome", "exchange-failed")
				ssp.Finish()
				return r.fail(name, qtype, res, err)
			}
			r.pinSticky(zoneName, server)
		}

		done, err := r.absorb(resp, server, zoneName, name, qtype, res, depth, ssp)
		dnswire.ReleaseMessage(resp)
		ssp.Finish()
		if done || err != nil {
			return err
		}
	}
	return r.fail(name, qtype, res, fmt.Errorf("resolver: referral chase exceeded %d steps", maxSteps))
}

// absorb caches a response's contents and decides what happens next.
// done=true means the client answer (or error) is complete. The TTL
// decision taken at this step (cap clamp, negative fallback) is
// annotated on sp, the current step's span.
func (r *Resolver) absorb(resp *dnswire.Message, server netip.Addr, zoneName, name dnswire.Name, qtype dnswire.Type, res *Result, depth int, sp *obs.Span) (bool, error) {
	now := r.Clock.Now()

	switch {
	case resp.Header.RCode == dnswire.RCodeNXDomain:
		negTTL, fromSOA := r.cacheNegative(resp, name, qtype, cache.NegNXDomain, now)
		if sp != nil {
			sp.Annotate("outcome", "nxdomain")
			sp.Annotate("neg_ttl_source", negSource(fromSOA))
			sp.AnnotateUint("neg_ttl_s", uint64(negTTL))
		}
		res.Msg.Header.RCode = dnswire.RCodeNXDomain
		res.FinalServer = server
		return true, nil

	case resp.Header.RCode != dnswire.RCodeNoError:
		sp.Annotate("outcome", "upstream-error")
		return true, r.fail(name, qtype, res, fmt.Errorf("resolver: upstream rcode %s", resp.Header.RCode))

	case len(resp.Answer) > 0:
		r.cacheAnswerSections(resp, now)
		res.FinalServer = server
		// Copy matching answers (and any CNAME chain present). Client
		// answers carry the TTLs the cache will honor — capped — exactly as
		// deployed resolvers report them.
		var lastCNAME dnswire.Name
		answered := false
		for _, rr := range resp.Answer {
			rr.TTL = r.clampTTL(rr.TTL, sp)
			if rr.Name == name && rr.Type == qtype {
				res.Msg.AddAnswer(rr)
				answered = true
			} else if rr.Type == dnswire.TypeCNAME {
				res.Msg.AddAnswer(rr)
				lastCNAME = rr.Data.(dnswire.CNAME).Target
				name = lastCNAME // chain may continue in this response
			}
		}
		sp.Annotate("outcome", "answer")
		if !answered && lastCNAME != "" {
			// Chase the alias.
			if sp != nil {
				sp.Annotate("cname", string(lastCNAME))
			}
			return true, r.resolveInto(lastCNAME, qtype, res, depth+1)
		}
		if !answered {
			return true, r.fail(name, qtype, res, fmt.Errorf("resolver: answer section did not match question"))
		}
		if r.Policy.Validate && resp.Header.AA && depth < maxDepth {
			if err := r.validateAnswer(server, name, qtype, resp.AnswersFor(name, qtype), res, depth); err != nil {
				sp.Annotate("dnssec", "bogus")
				return true, r.fail(name, qtype, res, err)
			}
			res.Msg.Header.AD = res.Validated
			if sp != nil && res.Validated {
				sp.Annotate("dnssec", "validated")
			}
		}
		return true, nil

	case resp.IsReferral():
		child := r.cacheReferral(resp, now)
		if sp != nil {
			sp.Annotate("outcome", "referral")
			sp.Annotate("child", string(child))
		}
		if child == "" || !name.IsSubdomainOf(child) {
			return true, r.fail(name, qtype, res, fmt.Errorf("resolver: lame referral from %s", server))
		}
		if child == zoneName {
			return true, r.fail(name, qtype, res, fmt.Errorf("resolver: referral loop at %s", child))
		}
		// Parent-centric resolvers can now answer NS/address questions
		// straight from the referral data they just cached.
		if e, rem, ok := r.answerFromCache(name, qtype); ok {
			sp.Annotate("answered_from", "referral-data")
			res.FinalServer = server
			r.applyCached(e, rem, name, qtype, res, depth)
			return true, nil
		}
		return false, nil

	default:
		// NODATA.
		negTTL, fromSOA := r.cacheNegative(resp, name, qtype, cache.NegNoData, now)
		if sp != nil {
			sp.Annotate("outcome", "nodata")
			sp.Annotate("neg_ttl_source", negSource(fromSOA))
			sp.AnnotateUint("neg_ttl_s", uint64(negTTL))
		}
		res.FinalServer = server
		return true, nil
	}
}

// negSource labels where a negative TTL came from.
func negSource(fromSOA bool) string {
	if fromSOA {
		return "soa-minimum"
	}
	return "policy-fallback"
}

// StaleGate vetoes RFC 8767 serve-stale answers. AllowStale is asked with
// the candidate entry's store time; returning false forces the error path
// (SERVFAIL) instead of the stale answer. The push plane's subscriber
// implements this: stale is fine for plain TTL expiry, but an entry that a
// NOTIFY purged — or that an unhealthy subscription can no longer vouch
// for — is known-superseded, not merely old.
type StaleGate interface {
	AllowStale(name dnswire.Name, qtype dnswire.Type, storedAt time.Time) bool
}

// SetYield installs y, which each resolution calls once, at the first point
// where it may wait: a cache miss, a refresh-ahead, or an upstream exchange
// (a CNAME chased from a cached alias). There a UDP listener hands its
// socket to another loop (simnet.Yielder). Safe while queries are served.
func (r *Resolver) SetYield(y func()) { r.yield.Store(&y) }

// mayWait calls the yield hook unless res already has.
func (r *Resolver) mayWait(res *Result) {
	if res.yielded {
		return
	}
	res.yielded = true
	if y := r.yield.Load(); y != nil {
		(*y)()
	}
}

// SetStaleGate installs g (nil removes it) as the veto consulted before
// every stale answer (Policy.ServeStale). The push plane installs its
// subscriber here so a name purged by NOTIFY — or covered by an unhealthy
// subscription that may have missed purges — is never served stale from a
// pre-purge entry. Safe to call while resolutions are running.
func (r *Resolver) SetStaleGate(g StaleGate) {
	if g == nil {
		r.staleGate.Store(nil)
		return
	}
	r.staleGate.Store(&g)
}

// fail is the terminal error path: serve stale if allowed, else SERVFAIL.
// GetStale also hands back fresh entries of any credibility, so the stale
// answer must clear the same credibility floor and cap a cache hit does.
func (r *Resolver) fail(name dnswire.Name, qtype dnswire.Type, res *Result, err error) error {
	if r.Policy.ServeStale {
		if e, rem, ok := r.Cache.GetStale(name, qtype); ok && e.Negative == cache.NotNegative && e.Cred >= r.answerCred() {
			if g := r.staleGate.Load(); g != nil && !(*g).AllowStale(name, qtype, time.Unix(0, e.Stored)) {
				res.Span.Annotate("serve_stale_denied", string(name))
				return err
			}
			res.Stale = true
			res.Span.Annotate("serve_stale", string(name))
			r.applyCached(e, rem, name, qtype, res, maxDepth)
			return nil
		}
	}
	return err
}

// ednsOPT is the OPT pseudo-record every upstream query carries: it
// advertises EDNS so referrals with glue fit in one datagram. One shared
// value, because boxing the OPT RData per query allocates.
var ednsOPT = dnswire.RR{Name: dnswire.Root, Type: dnswire.TypeOPT,
	Data: dnswire.OPT{UDPSize: dnswire.MaxEDNSSize}}

// exchangeAny tries the candidate servers (sticky resolvers always lead
// with their pinned choice) until one responds. Each attempt becomes an
// "exchange" child of sp, the current step's span. With the zero-value
// RetryPolicy this behaves exactly as the legacy resolver did: up to
// legacyAttempts distinct servers, back to back, no extra randomness.
// An active Retry policy adds cycling attempts, backoff with deterministic
// jitter, and an optional hedged second query on the first attempt. The
// reply is pooled; see attempt.
func (r *Resolver) exchangeAny(servers []netip.Addr, name dnswire.Name, qtype dnswire.Type, res *Result, sp *obs.Span, qs *queryScratch) (*dnswire.Message, netip.Addr, error) {
	r.mayWait(res)
	rp := r.Policy.Retry
	retrying := rp.enabled()
	order := r.serverOrder(servers, qs)
	attempts := rp.Attempts
	if attempts <= 0 {
		// Legacy semantics: distinct servers only, never more than the
		// candidate list offers.
		attempts = min(legacyAttempts, len(order))
	}

	// The query is encoded once; each attempt stamps a fresh transaction ID
	// straight into the header bytes.
	qs.msg.Reset()
	qs.msg.Header = dnswire.Header{Opcode: dnswire.OpcodeQuery}
	qs.msg.Question = append(qs.msg.Question,
		dnswire.Question{Name: name, Type: qtype, Class: dnswire.ClassIN})
	qs.msg.AddAdditional(ednsOPT)
	if err := qs.encode(); err != nil {
		return nil, netip.Addr{}, err
	}

	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if b := rp.backoffFor(i); b > 0 {
				d := b + r.drawJitter(rp, b)
				res.Latency += d
				r.Obs.Backoff.ObserveDuration(d)
				if sp != nil {
					sp.AnnotateUint("backoff_us", uint64(d/time.Microsecond))
				}
			}
			res.Retries++
			r.Obs.Retries.Inc()
		}
		if i == 0 && rp.Hedge > 0 && len(order) > 1 {
			resp, server, cost, err := r.hedgedAttempt(order, qs, rp, res, sp)
			res.Latency += cost
			if err == nil {
				return resp, server, nil
			}
			lastErr = err
			continue
		}
		server := order[i%len(order)]
		resp, cost, err := r.attempt(server, qs, retrying, res, sp, res.Latency)
		res.Latency += cost
		if err == nil {
			return resp, server, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("resolver: no servers answered for %s", name)
	}
	return nil, netip.Addr{}, lastErr
}

// attempt performs one upstream exchange of qs's query against server,
// stamping a fresh transaction ID into the pre-encoded wire. It books
// Queries/Timeouts and SRTT state but deliberately does NOT charge
// res.Latency: sequential retries charge their full cost, while a hedged
// pair charges only the earlier completion — the caller knows which. offset
// positions the fault schedule at the virtual latency this resolution has
// already accumulated, so a retry after backoff sees later fault-window
// state.
//
// The reply lands in qs.reply, which the next attempt reuses: it is decoded
// (borrowing the asked name, see queryScratch.LendName) into a pooled
// Message whose lifetime the caller owns. iterate releases it after absorb,
// which copies out every record it caches or answers with, so nothing may
// keep the message or its section slices past that point. A reply attempt
// rejects is released here; one is rejected unless dnswire.CheckReply finds
// it answers the query (RFC 5452 §9.1), so a late or forged reply for another
// name is never absorbed.
func (r *Resolver) attempt(server netip.Addr, qs *queryScratch, retrying bool, res *Result, sp *obs.Span, offset time.Duration) (*dnswire.Message, time.Duration, error) {
	q := qs.question()
	esp := sp.Child("exchange")
	if esp != nil {
		esp.Annotate("server", server.String())
	}
	qID := r.id()
	qs.wire[0], qs.wire[1] = byte(qID>>8), byte(qID)
	res.Queries++
	reply, rtt, err := simnet.AppendExchange(r.Net, qs.reply[:0], r.Addr, server, qs.wire, offset)
	qs.reply = reply
	r.Obs.UpstreamRTT.ObserveDuration(rtt)
	if esp != nil {
		esp.AnnotateUint("rtt_us", uint64(rtt/time.Microsecond))
	}
	if err != nil {
		res.Timeouts++
		r.srttPenalize(server, rtt)
		esp.Annotate("error", "timeout")
		esp.Finish()
		r.QLog.Upstream(server, q.Name, q.Type, 0, 0, qlog.OutcomeTimeout, rtt)
		return nil, rtt, err
	}
	if srtt := r.srttObserve(server, rtt); srtt > 0 {
		r.Obs.SRTT.ObserveDuration(srtt)
		if esp != nil {
			esp.AnnotateUint("srtt_us", uint64(srtt/time.Microsecond))
		}
	}
	resp := dnswire.AcquireMessage()
	d := dnswire.AcquireDecoder()
	d.Names = qs
	derr := d.Decode(qs.reply, resp)
	dnswire.ReleaseDecoder(d)
	if derr == nil {
		derr = dnswire.CheckReply(resp, qID, q)
	}
	var (
		reject error
		label  string
		rcode  dnswire.RCode // logged only for replies that parsed and matched
	)
	switch {
	case derr == dnswire.ErrIDMismatch:
		reject, label = derr, "id-mismatch"
	case derr == dnswire.ErrQuestionMismatch:
		reject, label = derr, "question-mismatch"
	case derr != nil:
		reject, label = derr, "decode"
	// An active retry plane treats degraded replies as retryable: an empty
	// truncated shell (anycast shedding load) and failure rcodes both mean
	// "ask someone else", where the legacy path would hand them to absorb
	// and fail the whole resolution.
	case retrying && resp.Header.TC && len(resp.Answer) == 0 && len(resp.Authority) == 0:
		reject, label, rcode = errTruncated, "truncated", resp.Header.RCode
	case retrying && (resp.Header.RCode == dnswire.RCodeServFail || resp.Header.RCode == dnswire.RCodeRefused):
		reject, label, rcode = errUpstreamFailed, "failure-rcode", resp.Header.RCode
	}
	if reject != nil {
		esp.Annotate("error", label)
		esp.Finish()
		r.QLog.Upstream(server, q.Name, q.Type, rcode, 0, qlog.OutcomeError, rtt)
		dnswire.ReleaseMessage(resp)
		return nil, rtt, reject
	}
	esp.Finish()
	r.QLog.Upstream(server, q.Name, q.Type, resp.Header.RCode, resp.AnswerTTL(), qlog.OutcomeNone, rtt)
	return resp, rtt, nil
}

// hedgedAttempt races the two best candidates: the primary goes first and,
// if it has not completed within rp.Hedge, the backup is launched too. In
// the synchronous simulation both costs are known immediately, so the race
// resolves arithmetically — the client pays the earlier completion, and both
// queries hit the authoritatives (the real price of hedging).
func (r *Resolver) hedgedAttempt(order []netip.Addr, qs *queryScratch, rp RetryPolicy, res *Result, sp *obs.Span) (*dnswire.Message, netip.Addr, time.Duration, error) {
	base := res.Latency
	primary, backup := order[0], order[1]
	respP, costP, errP := r.attempt(primary, qs, true, res, sp, base)
	if errP == nil && costP <= rp.Hedge {
		return respP, primary, costP, nil
	}
	// The hedge timer fired while the primary was still outstanding.
	res.Hedges++
	r.Obs.Hedges.Inc()
	if sp != nil {
		sp.Annotate("hedge", backup.String())
	}
	respH, costH, errH := r.attempt(backup, qs, true, res, sp, base+rp.Hedge)
	completionH := rp.Hedge + costH
	switch {
	case errP == nil && (errH != nil || costP <= completionH):
		if errH == nil {
			dnswire.ReleaseMessage(respH)
		}
		return respP, primary, costP, nil
	case errH == nil:
		if errP == nil {
			dnswire.ReleaseMessage(respP)
		}
		r.Obs.HedgeWins.Inc()
		if sp != nil {
			sp.Annotate("hedge_win", backup.String())
		}
		return respH, backup, completionH, nil
	}
	// Both failed: the client waited out the slower failure.
	cost := costP
	if completionH > cost {
		cost = completionH
	}
	return nil, netip.Addr{}, cost, errP
}

// drawJitter draws the backoff jitter addition from the resolver's seeded
// RNG, so retry timing is deterministic per (seed, query sequence).
func (r *Resolver) drawJitter(rp RetryPolicy, b time.Duration) time.Duration {
	if rp.jitter() <= 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return rp.jitterFor(b, r.rng)
}

func (r *Resolver) srttObserve(server netip.Addr, rtt time.Duration) time.Duration {
	if r.srtt == nil {
		return 0
	}
	return r.srtt.observe(server, rtt)
}

func (r *Resolver) srttPenalize(server netip.Addr, cost time.Duration) {
	if r.srtt == nil {
		return
	}
	r.srtt.penalize(server, cost)
}

// serverOrder is the order exchangeAny tries servers in, a copy into qs's
// order buffer: servers may be the shared root hints or qs's own addrs.
func (r *Resolver) serverOrder(servers []netip.Addr, qs *queryScratch) []netip.Addr {
	// Single-candidate lists (the common case deep in a delegation) need
	// neither the shuffle nor the lock+copy it requires — this sits on the
	// hot path of every exchange.
	if len(servers) <= 1 {
		return servers
	}
	out := append(qs.order[:0], servers...)
	qs.order = out
	if r.Policy.Retry.OrderBySRTT && r.srtt != nil {
		r.srtt.sortBySRTT(out)
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// clampTTL applies the policy's cap to a TTL reported to clients, noting a
// change on sp (when tracing) as the step's ttl_clamp decision.
func (r *Resolver) clampTTL(ttl uint32, sp *obs.Span) uint32 {
	out := r.Policy.ClampTTL(ttl)
	if sp != nil && out != ttl {
		sp.Annotate("ttl_clamp", fmt.Sprintf("%d->%d", ttl, out))
	}
	return out
}

func (r *Resolver) id() uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}
