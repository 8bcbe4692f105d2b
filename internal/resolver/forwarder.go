package resolver

import (
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

// Lookuper is anything that can answer a client resolution — a full
// iterative Resolver or a Forwarder in front of one. Vantage points hold a
// Lookuper, matching the paper's observation (§4.4) that clients sit behind
// "multiple levels of resolvers".
type Lookuper interface {
	Resolve(name dnswire.Name, qtype dnswire.Type) (*Result, error)
}

// Handler adapts a Resolver into a simnet.Handler so recursives can be
// attached to the network and queried by forwarders over the wire, exactly
// like every other hop.
type Handler struct {
	R *Resolver
}

// ServeDNS answers one wire-format client query through the resolver.
func (h Handler) ServeDNS(wire []byte, from netip.Addr) []byte {
	q, err := dnswire.Decode(wire)
	if err != nil || len(q.Question) == 0 {
		return nil
	}
	res, err := h.R.Resolve(q.Q().Name, q.Q().Type)
	if err != nil || res == nil {
		resp := q.Reply()
		resp.Header.RCode = dnswire.RCodeServFail
		resp.Header.RA = true
		out, _ := dnswire.Encode(resp)
		return out
	}
	// res.Msg may be shared (a coalesced follower's, a cached memo's): it
	// is only read, and this client's ID and RD go into the encoded bytes.
	out, err := dnswire.Encode(res.Msg)
	if err != nil {
		return nil
	}
	dnswire.StampReply(out, q.Header.ID, q.Header.RD)
	return out
}

// Forwarder is the other resolver species the paper's infrastructure
// analysis finds (§4.4): it does no iteration itself, relaying queries
// (RD=1) to one of several full recursives and caching what comes back.
// With more than one upstream it models a resolver farm's frontend — each
// query may land on a different backend cache, producing exactly the
// fragmentation the paper observed in OpenDNS's mixed answers.
type Forwarder struct {
	// Addr is the forwarder's own address.
	Addr netip.Addr
	// Upstreams are the recursive backends, queried one per resolution.
	Upstreams []netip.Addr
	// Net carries the queries; Clock decays the local cache.
	Net   simnet.Exchanger
	Clock simnet.Clock
	// Cache is the forwarder's own (usually small) cache layer.
	Cache *cache.Cache
	// Passthrough disables the local cache: the forwarder becomes a pure
	// load-balancing frontend, as public-resolver front doors are.
	Passthrough bool
	// Policy supplies the TTL knobs the forwarder honors: the no-SOA
	// negative-TTL fallback plus the cap/floor clamping it shares with the
	// full resolver. The zero value means no cap, no floor, 60 s fallback.
	Policy Policy

	mu     sync.Mutex
	rng    *rand.Rand
	nextID uint16
}

// NewForwarder builds a forwarder with its own cache.
func NewForwarder(addr netip.Addr, upstreams []netip.Addr, net simnet.Exchanger, clock simnet.Clock, seed int64) *Forwarder {
	if clock == nil {
		clock = simnet.WallClock{}
	}
	return &Forwarder{
		Addr:      addr,
		Upstreams: upstreams,
		Net:       net,
		Clock:     clock,
		Cache:     cache.New(clock, cache.Config{}),
		rng:       rand.New(simnet.NewSource(seed)),
	}
}

// Resolve implements Lookuper: local cache, then one upstream.
func (f *Forwarder) Resolve(name dnswire.Name, qtype dnswire.Type) (*Result, error) {
	res := &Result{Msg: &dnswire.Message{
		Header:   dnswire.Header{QR: true, RA: true},
		Question: []dnswire.Question{{Name: name, Type: qtype, Class: dnswire.ClassIN}},
	}}
	if e, rem, ok := f.cacheGet(name, qtype); ok {
		res.CacheHit = true
		switch e.Negative {
		case cache.NegNXDomain:
			res.Msg.Header.RCode = dnswire.RCodeNXDomain
		case cache.NegNoData:
		default:
			for _, rr := range e.RRs {
				rr.TTL = rem
				res.Msg.AddAnswer(rr)
			}
		}
		if len(res.Msg.Answer) > 0 {
			res.AnswerTTL = res.Msg.Answer[0].TTL
		}
		return res, nil
	}
	if len(f.Upstreams) == 0 {
		res.Msg.Header.RCode = dnswire.RCodeServFail
		return res, nil
	}

	f.mu.Lock()
	start := f.rng.Intn(len(f.Upstreams))
	f.mu.Unlock()

	// The retry plane mirrors the full resolver's: the zero-value policy
	// keeps the legacy single-shot behavior (one upstream, one attempt,
	// SERVFAIL on any failure); Retry.Attempts > 1 cycles the upstreams
	// with backoff, which is what rescues clients behind a flapping
	// recursive instead of handing them an instant SERVFAIL.
	rp := f.Policy.Retry
	attempts := rp.Attempts
	if attempts <= 0 {
		attempts = 1
	}

	qs := acquireQueryScratch()
	qs.msg.Header = dnswire.Header{RD: true, Opcode: dnswire.OpcodeQuery}
	qs.msg.Question = append(qs.msg.Question,
		dnswire.Question{Name: name, Type: qtype, Class: dnswire.ClassIN})
	wire, err := qs.encode()
	if err != nil {
		releaseQueryScratch(qs)
		return nil, err
	}
	var (
		resp     *dnswire.Message
		upstream netip.Addr
		spent    time.Duration
	)
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if b := rp.backoffFor(i); b > 0 {
				d := b + f.drawJitter(rp, b)
				spent += d
				res.Latency += d
			}
			if rp.Deadline > 0 && spent >= rp.Deadline {
				break
			}
			res.Retries++
		}
		upstream = f.Upstreams[(start+i)%len(f.Upstreams)]
		f.mu.Lock()
		f.nextID++
		id := f.nextID
		f.mu.Unlock()
		wire[0], wire[1] = byte(id>>8), byte(id)
		res.Queries++
		respWire, rtt, err := f.exchangeWire(upstream, wire, res.Latency)
		res.Latency += rtt
		spent += rtt
		if err != nil {
			res.Timeouts++
			continue
		}
		m, derr := dnswire.Decode(respWire)
		if derr != nil || m.Header.ID != id {
			continue
		}
		if rp.enabled() && (m.Header.RCode == dnswire.RCodeServFail || m.Header.RCode == dnswire.RCodeRefused) {
			continue
		}
		resp = m
		break
	}
	releaseQueryScratch(qs)
	if resp == nil {
		res.Msg.Header.RCode = dnswire.RCodeServFail
		return res, nil
	}
	res.Msg.Header.RCode = resp.Header.RCode
	res.FinalServer = upstream
	now := f.Clock.Now()
	if f.Passthrough {
		if len(resp.Answer) > 0 {
			res.Msg.Answer = resp.Answer
			res.AnswerTTL = resp.Answer[0].TTL
		}
		return res, nil
	}
	switch {
	case resp.Header.RCode == dnswire.RCodeNXDomain:
		f.Cache.Put(cache.Entry{
			Key: cache.Key{Name: name, Type: qtype}, TTL: f.negTTLFrom(resp),
			Stored: now, Cred: cache.CredAnswerNonAuth, Negative: cache.NegNXDomain,
		})
	case resp.Header.RCode != dnswire.RCodeNoError:
		// Upstream failure: nothing cacheable.
	case len(resp.Answer) > 0:
		res.Msg.Answer = resp.Answer
		res.AnswerTTL = resp.Answer[0].TTL
		for _, t := range answerableTypes {
			eachRRSet(resp.Answer, t, func(set []dnswire.RR) {
				f.Cache.Put(cache.Entry{
					Key: cache.Key{Name: set[0].Name, Type: t}, RRs: set, TTL: set[0].TTL,
					Stored: now, Cred: cache.CredAnswerNonAuth,
				})
			})
		}
	default:
		f.Cache.Put(cache.Entry{
			Key: cache.Key{Name: name, Type: qtype}, TTL: f.negTTLFrom(resp),
			Stored: now, Cred: cache.CredAnswerNonAuth, Negative: cache.NegNoData,
		})
	}
	return res, nil
}

// exchangeWire sends one wire query, positioning the fault schedule at the
// resolution's accumulated virtual latency when the network supports it.
func (f *Forwarder) exchangeWire(upstream netip.Addr, wire []byte, offset time.Duration) ([]byte, time.Duration, error) {
	if oe, ok := f.Net.(simnet.OffsetExchanger); ok {
		return oe.ExchangeAt(f.Addr, upstream, wire, offset)
	}
	return f.Net.Exchange(f.Addr, upstream, wire)
}

// drawJitter draws backoff jitter from the forwarder's seeded RNG.
func (f *Forwarder) drawJitter(rp RetryPolicy, b time.Duration) time.Duration {
	if rp.jitter() <= 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return rp.jitterFor(b, f.rng)
}

func (f *Forwarder) cacheGet(name dnswire.Name, qtype dnswire.Type) (*cache.Entry, uint32, bool) {
	if f.Passthrough {
		return nil, 0, false
	}
	return f.Cache.Get(name, qtype)
}

// negTTLFrom derives the RFC 2308 negative TTL: min(SOA TTL, SOA minimum)
// when the response carries a SOA, the policy's fallback otherwise. Either
// way the result is clamped by the policy cap/floor, exactly like positive
// TTLs are.
func (f *Forwarder) negTTLFrom(resp *dnswire.Message) uint32 {
	ttl := f.Policy.negTTLFallback()
	for _, rr := range resp.Authority {
		if soa, ok := rr.Data.(dnswire.SOA); ok {
			ttl = soa.Minimum
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
			break
		}
	}
	return f.Policy.ClampTTL(ttl)
}

var (
	_ Lookuper = (*Resolver)(nil)
	_ Lookuper = (*Forwarder)(nil)
)
