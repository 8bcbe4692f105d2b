// Package authoritative implements an authoritative DNS server over the
// zone model: it answers with the AA bit for data it owns, emits referrals
// with glue at delegation points, returns RFC 2308 negative answers, and
// chases in-zone CNAME chains. It serves both the simulated message plane
// (simnet.Handler) and real UDP/TCP sockets.
package authoritative

import (
	"bytes"
	"sync"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/qlog"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"

	"net/netip"
)

// Server is an authoritative server for a set of zones.
type Server struct {
	// Name identifies the server in logs and experiment reports
	// (e.g. "ns1.cachetest.net").
	Name dnswire.Name
	// Clock refills the response rate limiter's buckets.
	Clock simnet.Clock
	// Push, when non-nil, gets first claim on every decoded query — the
	// push plane (internal/push) uses it to intercept subscription requests
	// and IXFR pulls without this package importing it. Handlers must not
	// retain q: it returns to a pool when the query completes.
	Push PushHook

	mu    sync.RWMutex
	zones map[dnswire.Name]*zone.Zone
	// rrl, when non-nil, rate-limits UDP responses (see rrl.go).
	rrl *rrlState

	// m holds the server's counters; Instrument publishes them.
	m metrics
}

// NewServer creates a server with no zones. If clock is nil the wall clock
// is used.
func NewServer(name dnswire.Name, clock simnet.Clock) *Server {
	if clock == nil {
		clock = simnet.WallClock{}
	}
	return &Server{
		Name:  name,
		Clock: clock,
		zones: make(map[dnswire.Name]*zone.Zone),
	}
}

// AddZone makes the server authoritative for z.
func (s *Server) AddZone(z *zone.Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin] = z
}

// Zone returns the zone with the given origin, or nil.
func (s *Server) Zone(origin dnswire.Name) *zone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.zones[origin]
}

// QueryCount returns the number of queries handled: every reply the server
// produced, whatever its kind.
func (s *Server) QueryCount() uint64 { return s.m.queries.Value() }

// bestZone returns the most specific zone enclosing name, found by walking
// the name's ancestors so servers hosting many zones stay O(label count)
// per query.
func (s *Server) bestZone(name dnswire.Name) *zone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for n := name; ; n = n.Parent() {
		if z, ok := s.zones[n]; ok {
			return z
		}
		if n.IsRoot() {
			return nil
		}
	}
}

// LendName implements dnswire.NameSource: a query name that owns records in
// the zone enclosing it is the zone's own string, so decoding the query
// allocates no copy of it. The enclosing zone is found as bestZone finds it,
// and then probed once.
func (s *Server) LendName(spelling []byte) (dnswire.Name, bool) {
	s.mu.RLock()
	var z *zone.Zone
	for i := 0; z == nil && i < len(spelling); {
		z = s.zones[dnswire.Name(spelling[i:])]
		i += bytes.IndexByte(spelling[i:], '.') + 1
	}
	if z == nil {
		z = s.zones[dnswire.Root]
	}
	s.mu.RUnlock()
	if z == nil {
		return "", false
	}
	return z.Owner(spelling)
}

// ServeDNS implements simnet.Handler for the UDP transport: decode, handle,
// encode, truncating to the client's advertised EDNS size — or the classic
// 512 bytes when the query carried no OPT record (dnswire.ResponseLimit).
// Malformed queries get FORMERR; encode failures drop the query (nil).
func (s *Server) ServeDNS(wire []byte, from netip.Addr) []byte {
	return s.AppendServeDNS(nil, wire, from)
}

// AppendServeDNS implements simnet.AppendHandler: ServeDNS with the
// response appended to dst, allocation-free when dst has the room.
func (s *Server) AppendServeDNS(dst, wire []byte, from netip.Addr) []byte {
	return handler{s: s}.AppendServeDNS(dst, wire, from)
}

// Handler returns the server as one listener serves it. tap, when non-nil,
// records one response-out record per handled query under that listener's
// transport label — the authoritative-side capture the paper's §3.4 passive
// methodology collects. stream selects the stream transports (TCP, DoT,
// DoH): the 64 KiB frame limit applies instead of datagram truncation, and
// RRL does not.
func (s *Server) Handler(tap *qlog.Tap, stream bool) simnet.Handler {
	return handler{s: s, tap: tap, stream: stream}
}

// handler binds the server to one listener's query-log tap and transport.
type handler struct {
	s      *Server
	tap    *qlog.Tap
	stream bool
}

func (h handler) ServeDNS(wire []byte, from netip.Addr) []byte {
	return h.AppendServeDNS(nil, wire, from)
}

// BindYield implements simnet.Yielder: an authoritative answer never
// waits, so a UDP listener serves every query on the loop that read it.
func (handler) BindYield(func()) {}

// AppendServeDNS handles one query, appending the response to dst; dst comes
// back unextended when the query is dropped.
func (h handler) AppendServeDNS(dst, wire []byte, from netip.Addr) []byte {
	s := h.s
	// Query and reply live only for the duration of this call: the reply
	// copies the question and the zone's records by value, and the encoder
	// copies the reply into dst, so the decoder and both messages go back to
	// their pools on return. The query name is borrowed from the zones.
	d := dnswire.AcquireDecoder()
	d.Names = s
	q := dnswire.AcquireMessage()
	reply := dnswire.AcquireMessage()
	defer func() {
		dnswire.ReleaseMessage(reply)
		dnswire.ReleaseMessage(q)
		dnswire.ReleaseDecoder(d)
	}()
	if err := d.Decode(wire, q); err != nil {
		return dnswire.AppendFormErr(dst, wire)
	}
	resp := h.handleInto(reply, q, from)
	if !h.stream {
		// RRL guards only the connectionless transport: a TCP client has
		// already proved its source address, so limiting it would add
		// collateral damage without reducing amplification.
		if r := s.limiter(); r != nil {
			switch r.check(s.band(q.Q(), resp), from) {
			case rrlDrop:
				s.m.rrlDropped.Inc()
				return dst
			case rrlSlip:
				s.m.rrlSlipped.Inc()
				resp = slipReply(resp)
			default:
				s.m.rrlPassed.Inc()
			}
		}
	}
	out, err := dnswire.AppendEncodeWithLimit(dst, resp, dnswire.ResponseLimit(q, h.stream))
	if err != nil {
		return dst
	}
	return out
}

// PushHook intercepts queries ahead of normal resolution. HandleQuery
// returns (resp, true) to claim the query, (nil, false) to pass it through.
// internal/push's Authority implements this for subscription requests,
// NOTIFY handling, and IXFR serving.
type PushHook interface {
	HandleQuery(q *dnswire.Message, from netip.Addr) (*dnswire.Message, bool)
}

// handleInto answers q into resp, a reset Message, and returns the answer:
// resp itself, or a message of their own when the push hook or AXFR builds
// one. The wire path passes a pooled resp. Every reply is counted and logged
// here, so a refusal is booked like an answer.
func (h handler) handleInto(resp, q *dnswire.Message, from netip.Addr) *dnswire.Message {
	resp = h.s.reply(resp, q, from)
	h.s.m.observe(resp)
	if h.tap != nil {
		h.tap.ResponseOut(from, q.Q().Name, q.Q().Type, resp.Header.RCode, resp.AnswerTTL(), qlog.OutcomeNone, 0)
	}
	return resp
}

// reply picks the answer: the push hook's, NOTIMP, a transfer, or the most
// specific zone's — REFUSED when the server holds none for the name.
func (s *Server) reply(resp, q *dnswire.Message, from netip.Addr) *dnswire.Message {
	question := q.Q()
	if h := s.Push; h != nil {
		if claimed, ok := h.HandleQuery(q, from); ok {
			return claimed
		}
	}
	q.ReplyInto(resp)
	switch {
	case question.Name == "" || q.Header.Opcode != dnswire.OpcodeQuery:
		resp.Header.RCode = dnswire.RCodeNotImp
	case question.Type == TypeAXFR:
		return s.handleAXFR(q)
	default:
		if z := s.bestZone(question.Name); z != nil {
			s.answerFromZone(z, question.Name, question.Type, resp, 0)
		} else {
			resp.Header.RCode = dnswire.RCodeRefused
		}
	}
	return resp
}

// maxCNAMEChain bounds in-zone alias chasing.
const maxCNAMEChain = 8

// answerFromZone fills resp from z's lookup and chases a CNAME into any
// zone this server is also authoritative for.
func (s *Server) answerFromZone(z *zone.Zone, name dnswire.Name, t dnswire.Type, resp *dnswire.Message, depth int) {
	res := z.Lookup(name, t)
	res.FillReply(resp)
	if res.Kind == zone.CNAMEAnswer && depth < maxCNAMEChain {
		target := res.Answer.RRs[0].Data.(dnswire.CNAME).Target
		if tz := s.bestZone(target); tz != nil {
			s.answerFromZone(tz, target, t, resp, depth+1)
		}
	}
}
