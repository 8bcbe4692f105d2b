// Package authoritative implements an authoritative DNS server over the
// zone model: it answers with the AA bit for data it owns, emits referrals
// with glue at delegation points, returns RFC 2308 negative answers, and
// chases in-zone CNAME chains. It serves both the simulated message plane
// (simnet.Handler) and real UDP/TCP sockets.
package authoritative

import (
	"sync"
	"sync/atomic"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/qlog"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"

	"net/netip"
)

// QueryLogEntry records one handled query, the raw material for the
// paper's authoritative-side analyses (§3.4, §4.6, §6.2).
type QueryLogEntry struct {
	Time     time.Time
	Client   netip.Addr
	Name     dnswire.Name
	Type     dnswire.Type
	RCode    dnswire.RCode
	Answers  int
	Referral bool
}

// Server is an authoritative server for a set of zones.
type Server struct {
	// Name identifies the server in logs and experiment reports
	// (e.g. "ns1.cachetest.net").
	Name dnswire.Name
	// Clock timestamps query-log entries.
	Clock simnet.Clock
	// Obs, when non-nil, mirrors the query counters into the telemetry
	// plane (see Instrument); nil costs one pointer check per query.
	Obs *Metrics
	// QLog, when non-nil, emits one structured response-out record per
	// handled query — the authoritative-side capture the paper's §3.4
	// passive methodology collects. Nil costs one pointer check per query.
	QLog *qlog.Tap
	// Push, when non-nil, gets first claim on every decoded query — the
	// push plane (internal/push) uses it to intercept subscription requests
	// and IXFR pulls without this package importing it. Handlers must not
	// retain q: it returns to a pool when the query completes.
	Push PushHook

	mu    sync.RWMutex
	zones map[dnswire.Name]*zone.Zone
	log   []QueryLogEntry
	// rrl, when non-nil, rate-limits UDP responses (see rrl.go).
	rrl *rrlState
	// logging controls whether entries are retained. It and queries are
	// atomic so that counting a query takes no lock: logQuery takes s.mu
	// only to append to the log.
	logging atomic.Bool
	queries atomic.Uint64
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

// EnableQueryLog turns on query logging (off by default to keep large
// simulations lean).
func (s *Server) EnableQueryLog() { s.logging.Store(true) }

// QueryLog returns a copy of the retained log.
func (s *Server) QueryLog() []QueryLogEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]QueryLogEntry(nil), s.log...)
}

// ResetQueryLog clears the log and query counter.
func (s *Server) ResetQueryLog() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = nil
	s.queries.Store(0)
}

// QueryCount returns the number of queries handled since the last reset.
func (s *Server) QueryCount() uint64 { return s.queries.Load() }

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
	return s.serveWire(dst, wire, from, false)
}

// Stream returns the server's handler for the stream transports (TCP, DoT,
// DoH): same handling, but the 64 KiB frame limit applies instead of
// datagram truncation, and RRL does not.
func (s *Server) Stream() simnet.Handler { return streamHandler{s} }

type streamHandler struct{ s *Server }

func (h streamHandler) ServeDNS(wire []byte, from netip.Addr) []byte {
	return h.s.serveWire(nil, wire, from, true)
}

func (h streamHandler) AppendServeDNS(dst, wire []byte, from netip.Addr) []byte {
	return h.s.serveWire(dst, wire, from, true)
}

// serveWire handles one query, appending the response to dst; dst comes back
// unextended when the query is dropped. stream selects the stream-transport
// size limit and exempts the query from RRL.
func (s *Server) serveWire(dst, wire []byte, from netip.Addr, stream bool) []byte {
	// Query and reply live only for the duration of this call: the reply
	// copies the question and the zone's records by value, and the encoder
	// copies the reply into dst, so the decoder and both messages go back to
	// their pools on return.
	d := dnswire.AcquireDecoder()
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
	resp := s.handleInto(reply, q, from)
	if !stream {
		// RRL guards only the connectionless transport: a TCP client has
		// already proved its source address, so limiting it would add
		// collateral damage without reducing amplification.
		if r := s.limiter(); r != nil {
			switch r.check(s.band(q.Q(), resp), from) {
			case rrlDrop:
				if m := s.Obs; m != nil {
					m.RRLDropped.Inc()
				}
				return dst
			case rrlSlip:
				if m := s.Obs; m != nil {
					m.RRLSlipped.Inc()
				}
				resp = slipReply(resp)
			default:
				if m := s.Obs; m != nil {
					m.RRLPassed.Inc()
				}
			}
		}
	}
	out, err := dnswire.AppendEncodeWithLimit(dst, resp, dnswire.ResponseLimit(q, stream))
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
// one. The wire path passes a pooled resp.
func (s *Server) handleInto(resp, q *dnswire.Message, from netip.Addr) *dnswire.Message {
	question := q.Q()
	if h := s.Push; h != nil {
		if claimed, ok := h.HandleQuery(q, from); ok {
			s.logQuery(from, question, claimed)
			return claimed
		}
	}
	q.ReplyInto(resp)
	if question.Name == "" || q.Header.Opcode != dnswire.OpcodeQuery {
		resp.Header.RCode = dnswire.RCodeNotImp
		s.logQuery(from, question, resp)
		return resp
	}
	if question.Type == TypeAXFR {
		return s.handleAXFR(q, from)
	}

	z := s.bestZone(question.Name)
	if z == nil {
		resp.Header.RCode = dnswire.RCodeRefused
		s.logQuery(from, question, resp)
		return resp
	}
	s.answerFromZone(z, question.Name, question.Type, resp, 0)
	s.logQuery(from, question, resp)
	return resp
}

// maxCNAMEChain bounds in-zone alias chasing.
const maxCNAMEChain = 8

func (s *Server) answerFromZone(z *zone.Zone, name dnswire.Name, t dnswire.Type, resp *dnswire.Message, depth int) {
	res := z.Lookup(name, t)
	switch res.Kind {
	case zone.Answer:
		resp.Header.AA = true
		resp.AddAnswer(res.Answer.RRs...)
	case zone.CNAMEAnswer:
		resp.Header.AA = true
		resp.AddAnswer(res.Answer.RRs...)
		if depth < maxCNAMEChain {
			target := res.Answer.RRs[0].Data.(dnswire.CNAME).Target
			// Follow the alias if we are authoritative for the target too.
			if tz := s.bestZone(target); tz != nil {
				s.answerFromZone(tz, target, t, resp, depth+1)
			}
		}
	case zone.NoData:
		resp.Header.AA = true
		if res.Authority != nil {
			resp.AddAuthority(res.Authority.RRs...)
		}
	case zone.NXDomain:
		resp.Header.AA = true
		resp.Header.RCode = dnswire.RCodeNXDomain
		if res.Authority != nil {
			resp.AddAuthority(res.Authority.RRs...)
		}
	case zone.Delegation:
		// Referral: AA clear, NS in authority, glue in additional.
		resp.AddAuthority(res.Authority.RRs...)
		resp.AddAdditional(res.Glue...)
	case zone.NotInZone:
		resp.Header.RCode = dnswire.RCodeRefused
	}
}

func (s *Server) logQuery(from netip.Addr, q dnswire.Question, resp *dnswire.Message) {
	if m := s.Obs; m != nil {
		m.observe(resp)
	}
	if t := s.QLog; t != nil {
		var ttl uint32
		if len(resp.Answer) > 0 {
			ttl = resp.Answer[0].TTL
		}
		t.ResponseOut(from, q.Name, q.Type, resp.Header.RCode, ttl, qlog.OutcomeNone, 0)
	}
	s.queries.Add(1)
	if !s.logging.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, QueryLogEntry{
		Time:     s.Clock.Now(),
		Client:   from,
		Name:     q.Name,
		Type:     q.Type,
		RCode:    resp.Header.RCode,
		Answers:  len(resp.Answer),
		Referral: resp.IsReferral(),
	})
}
