package dnsttl

import (
	"context"
	"crypto/tls"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/middleware"
	"dnsttl/internal/push"
	"dnsttl/internal/qlog"
	"dnsttl/internal/resolver"
)

// RecursiveServer fronts a Client with real-socket listeners — UDP, TCP,
// DoT, and DoH — turning the library into a runnable recursive resolver
// daemon (cmd/resolverd). Each Listen* method is independent; any subset
// may be active.
type RecursiveServer struct {
	Client *Client
	// QueryLog, when non-nil, captures a client-in record as each query
	// arrives and a response-out record (rcode, answer TTL, cache outcome,
	// wall latency) as each response leaves, labeled with the listener's
	// transport ("udp", "tcp", "dot", "doh"). Nil disables capture at the
	// cost of one pointer check per query.
	QueryLog *qlog.Logger

	// push, when set, claims NOTIFY-opcode datagrams on every listener
	// (see EnablePush): the change-feed plane's notifies purge the client's
	// caches instead of being answered as queries. Atomic because
	// EnablePush may race with already-running listeners.
	push atomic.Pointer[push.Subscriber]

	ls authoritative.Listeners
}

// transportHandler binds one listener's queries to its qlog tap, its
// transport's response size limit and its context.
type transportHandler struct {
	rs  *RecursiveServer
	tap *qlog.Tap
	// stream is true for TCP, DoT and DoH, whose replies are bounded by the
	// 64 KiB frame and never truncated to a datagram size.
	stream bool
	// ctx is what its queries resolve under: on the UDP listener it carries
	// yield, both bound by BindYield. The stream transports serve each
	// connection on its own goroutine and never yield.
	ctx   context.Context
	yield func()
}

// BindYield implements simnet.Yielder on the UDP listener's handler: a
// resolution this listener serves yields where it first may wait, and a
// NOTIFY yields before the zone pull it triggers.
func (h *transportHandler) BindYield(yield func()) {
	h.yield = yield
	h.ctx = resolver.WithYield(context.Background(), yield)
}

func (h transportHandler) ServeDNS(wire []byte, from netip.Addr) []byte {
	return h.AppendServeDNS(nil, wire, from)
}

// ServeDNS answers one client query through the resolver: decode, resolve
// (cache first), encode, stamp the client's transaction ID. Direct calls
// (tests, embedding) log under the "direct" transport label and get the
// UDP size limits.
func (rs *RecursiveServer) ServeDNS(wire []byte, from netip.Addr) []byte {
	return rs.handler("direct", false).AppendServeDNS(nil, wire, from)
}

// serveScratch is the per-query state of the serve path that must live on
// the heap (the pipeline takes the query and its storage by pointer) but
// dies with the call, so it is pooled: no stage retains a *middleware.Query
// or its Into, and nothing of the decoded query outlives the call except
// its immutable Name. res is the storage the query lends the pipeline: the
// answer is encoded before the scratch goes back to the pool.
type serveScratch struct {
	query dnswire.Message
	mq    middleware.Query
	res   resolver.Result
}

var serveScratchPool = sync.Pool{New: func() any { return new(serveScratch) }}

// AppendServeDNS implements simnet.AppendHandler: the reply is appended to
// dst, which comes back unextended when the query is dropped. The resolved
// message may be shared with other clients (coalesced followers, cache
// entries), so it is only read: this client's transaction ID and RD flag go
// into the encoded bytes.
func (h transportHandler) AppendServeDNS(dst, wire []byte, from netip.Addr) []byte {
	rs, tap := h.rs, h.tap
	d := dnswire.AcquireDecoder()
	sc := serveScratchPool.Get().(*serveScratch)
	defer func() {
		serveScratchPool.Put(sc)
		dnswire.ReleaseDecoder(d)
	}()
	q := &sc.query
	if err := d.Decode(wire, q); err != nil || len(q.Question) == 0 {
		return dnswire.AppendFormErr(dst, wire)
	}
	if q.Header.Opcode == dnswire.OpcodeNotify && !q.Header.QR {
		if sub := rs.push.Load(); sub != nil {
			if h.yield != nil {
				h.yield()
			}
			return append(dst, sub.HandleNotifyWire(wire, from)...)
		}
	}
	name, qtype := q.Q().Name, q.Q().Type
	tap.ClientIn(from, name, qtype)
	var start time.Time
	if tap != nil {
		start = time.Now()
	}
	sc.mq = middleware.Query{Name: name, Type: qtype, Client: from, Into: &sc.res}
	pres, err := rs.Client.f.ResolveQuery(h.ctx, &sc.mq)
	if err != nil || pres.Result == nil {
		if tap != nil {
			tap.ResponseOut(from, name, qtype, RCodeServFail, 0, qlog.OutcomeError, time.Since(start))
		}
		resp := q.Reply()
		resp.Header.RCode = RCodeServFail
		resp.Header.RA = true
		return appendReply(dst, resp, 0, q)
	}
	res := pres.Result
	if tap != nil {
		tap.ResponseOut(from, name, qtype, res.Msg.Header.RCode, res.AnswerTTL,
			pipelineOutcome(pres), time.Since(start))
	}
	if pres.Drop {
		// The rate limiter asked for silence: the client sees a timeout,
		// exactly what an attacker flooding a limited bucket deserves.
		return dst
	}
	return appendReply(dst, res.Msg, dnswire.ResponseLimit(q, h.stream), q)
}

// appendReply encodes m onto dst within limit as the reply to query q. An
// encode failure drops the query.
func appendReply(dst []byte, m *Message, limit int, q *Message) []byte {
	out, err := dnswire.AppendEncodeWithLimit(dst, m, limit)
	if err != nil {
		return dst
	}
	dnswire.StampReply(out[len(dst):], q.Header.ID, q.Header.RD)
	return out
}

// pipelineOutcome maps a pipeline response onto the qlog outcome
// taxonomy: middleware verdicts first (blocked, limited), then the
// resolution trace (coalesced, stale, hit, miss).
func pipelineOutcome(resp middleware.Response) qlog.Outcome {
	switch resp.Verdict {
	case middleware.VerdictBlocked:
		return qlog.OutcomeBlocked
	case middleware.VerdictLimited:
		return qlog.OutcomeLimited
	}
	res := resp.Result
	switch {
	case res.Coalesced:
		return qlog.OutcomeCoalesced
	case res.Stale:
		return qlog.OutcomeStale
	case res.CacheHit:
		return qlog.OutcomeHit
	}
	return qlog.OutcomeMiss
}

// handler is the handler of one listener: its qlog tap carries the
// transport label, stream its response size limit.
func (rs *RecursiveServer) handler(transport string, stream bool) transportHandler {
	return transportHandler{rs: rs, tap: rs.QueryLog.Tap(transport), stream: stream, ctx: context.Background()}
}

// ListenUDP binds addr and serves client queries until Close.
func (rs *RecursiveServer) ListenUDP(addr string) (netip.AddrPort, error) {
	h := rs.handler("udp", false)
	return rs.ls.UDP(addr, &h, rs.Client.registry)
}

// ListenTCP binds addr for persistent-TCP clients (RFC 7766) until Close.
func (rs *RecursiveServer) ListenTCP(addr string) (netip.AddrPort, error) {
	return rs.ls.TCP(addr, rs.handler("tcp", true), nil, rs.Client.registry)
}

// ListenDoT binds addr for DNS-over-TLS clients (RFC 7858) until Close.
func (rs *RecursiveServer) ListenDoT(addr string, cfg *tls.Config) (netip.AddrPort, error) {
	return rs.ls.TCP(addr, rs.handler("dot", true), cfg, rs.Client.registry)
}

// ListenDoH binds addr for DNS-over-HTTPS clients (RFC 8484) until Close.
func (rs *RecursiveServer) ListenDoH(addr string, cfg *tls.Config) (netip.AddrPort, error) {
	return rs.ls.DoH(addr, rs.handler("doh", true), cfg)
}

// Close drains every listener: each stops accepting, queries already in
// service are answered, idle connections are closed at once. It returns nil
// after a clean drain, also when nothing was listening.
func (rs *RecursiveServer) Close() error { return rs.ls.Close() }
