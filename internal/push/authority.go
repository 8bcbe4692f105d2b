package push

import (
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
)

// Authority is the server half of the push plane: it owns the feeds of the
// zones an authoritative server publishes, tracks subscribers, fans NOTIFYs
// out on every committed change, and serves the IXFR pulls those NOTIFYs
// trigger. It plugs into authoritative.Server via the PushHook field, so
// subscription requests and IXFR queries ride the server's normal listeners
// and are booked in its query count — notify overhead is charged honestly.
//
// Wire protocol:
//   - subscribe: Opcode NOTIFY, QR=0, question (origin, IXFR). A real-socket
//     subscriber encodes its notify-back port in the TTL of an additional
//     A record carrying its own address; port 0 (or no additional) means
//     "notify my source address" (the simnet convention). The response
//     answers with the zone's current SOA.
//   - notify: RFC 1996 — Opcode NOTIFY, AA, question (origin, SOA), the
//     current SOA in the answer section. Sent via Send, fire-and-forget.
//   - pull: RFC 1995 — Opcode QUERY, question (origin, IXFR), the client's
//     SOA in the authority section. Answered SOA-framed: up to date is a
//     lone SOA; deltas are SOA(cur), then per change set the Del section
//     (SOA at its From serial, deleted records) and Add section (SOA at its
//     To serial, added records), then SOA(cur) again; a client behind the
//     history gets the AXFR-shaped full zone (second record is not an SOA).
type Authority struct {
	// Send delivers one notify wire to a subscriber. The simnet wiring
	// ignores the port and uses Network.Exchange; the real-socket wiring
	// sends a UDP datagram. A nil Send disables fan-out (feeds still
	// version their zones).
	Send func(dst netip.AddrPort, wire []byte) error

	mu    sync.Mutex
	feeds map[dnswire.Name]*Feed
	subs  map[dnswire.Name]map[netip.AddrPort]struct{}

	msgID atomic.Uint32

	// The authority's counts: Stats reads them, Instrument publishes them.
	changes, notifies, ixfrServed, axfrServed obs.Counter
}

// NewAuthority creates an authority with no feeds.
func NewAuthority() *Authority {
	return &Authority{
		feeds: make(map[dnswire.Name]*Feed),
		subs:  make(map[dnswire.Name]map[netip.AddrPort]struct{}),
	}
}

// AddFeed publishes f through this authority: every change set f commits
// becomes a NOTIFY fan-out to the zone's subscribers.
func (a *Authority) AddFeed(f *Feed) {
	a.mu.Lock()
	a.feeds[f.Origin()] = f
	a.mu.Unlock()
	f.setOnChange(a.broadcast)
}

// Instrument publishes the authority's counters in reg under the
// push.feed_* names, with a live subscriber-count gauge. It is safe while
// the authority serves; a nil registry is a no-op.
func (a *Authority) Instrument(reg *obs.Registry) {
	reg.CounterFunc(MetricFeedChanges, a.changes.Value)
	reg.CounterFunc(MetricFeedNotifies, a.notifies.Value)
	reg.CounterFunc(MetricFeedIXFRServed, a.ixfrServed.Value)
	reg.CounterFunc(MetricFeedAXFRServed, a.axfrServed.Value)
	reg.GaugeFunc(MetricFeedSubscribers, func() float64 {
		return float64(a.Stats().Subscribers)
	})
}

// AuthorityStats is a snapshot of the authority's counters.
type AuthorityStats struct {
	Changes     uint64
	Notifies    uint64
	IXFRServed  uint64
	AXFRServed  uint64
	Subscribers int
}

// Stats snapshots the counters.
func (a *Authority) Stats() AuthorityStats {
	a.mu.Lock()
	n := 0
	for _, set := range a.subs {
		n += len(set)
	}
	a.mu.Unlock()
	return AuthorityStats{
		Changes:     a.changes.Value(),
		Notifies:    a.notifies.Value(),
		IXFRServed:  a.ixfrServed.Value(),
		AXFRServed:  a.axfrServed.Value(),
		Subscribers: n,
	}
}

// broadcast is a feed's onChange hook: one NOTIFY per subscriber, in
// deterministic (sorted) order.
func (a *Authority) broadcast(origin dnswire.Name, serial uint32) {
	a.changes.Inc()
	send := a.Send
	if send == nil {
		return
	}
	a.mu.Lock()
	f := a.feeds[origin]
	dsts := make([]netip.AddrPort, 0, len(a.subs[origin]))
	for dst := range a.subs[origin] {
		dsts = append(dsts, dst)
	}
	a.mu.Unlock()
	if f == nil || len(dsts) == 0 {
		return
	}
	sort.Slice(dsts, func(i, j int) bool {
		if c := dsts[i].Addr().Compare(dsts[j].Addr()); c != 0 {
			return c < 0
		}
		return dsts[i].Port() < dsts[j].Port()
	})
	soa, ok := f.Zone().SOA()
	if !ok {
		return
	}
	notify := &dnswire.Message{
		Header: dnswire.Header{
			ID:     uint16(a.msgID.Add(1)),
			Opcode: dnswire.OpcodeNotify,
			AA:     true,
		},
		Question: []dnswire.Question{{Name: origin, Type: dnswire.TypeSOA, Class: dnswire.ClassIN}},
	}
	notify.AddAnswer(soa)
	wire, err := dnswire.Encode(notify)
	if err != nil {
		return
	}
	for _, dst := range dsts {
		a.notifies.Inc()
		_ = send(dst, wire) // fire-and-forget: polling is the safety net
	}
}

// HandleQuery implements authoritative.PushHook: it claims subscription
// requests and IXFR pulls, passing everything else through.
func (a *Authority) HandleQuery(q *dnswire.Message, from netip.Addr) (*dnswire.Message, bool) {
	question := q.Q()
	switch {
	case q.Header.Opcode == dnswire.OpcodeNotify && !q.Header.QR && question.Type == TypeIXFR:
		return a.handleSubscribe(q, from), true
	case q.Header.Opcode == dnswire.OpcodeQuery && question.Type == TypeIXFR:
		return a.handleIXFR(q), true
	}
	return nil, false
}

// handleSubscribe registers the subscriber and answers with the current SOA.
func (a *Authority) handleSubscribe(q *dnswire.Message, from netip.Addr) *dnswire.Message {
	resp := q.Reply()
	origin := q.Q().Name
	port := uint16(0)
	for _, rr := range q.Additional {
		if rr.Type == dnswire.TypeA && rr.Name == origin {
			port = uint16(rr.TTL)
		}
	}
	a.mu.Lock()
	f := a.feeds[origin]
	if f != nil {
		set := a.subs[origin]
		if set == nil {
			set = make(map[netip.AddrPort]struct{})
			a.subs[origin] = set
		}
		set[netip.AddrPortFrom(from, port)] = struct{}{}
	}
	a.mu.Unlock()
	if f == nil {
		resp.Header.RCode = dnswire.RCodeRefused
		return resp
	}
	soa, ok := f.Zone().SOA()
	if !ok {
		resp.Header.RCode = dnswire.RCodeServFail
		return resp
	}
	resp.Header.AA = true
	resp.AddAnswer(soa)
	return resp
}

// handleIXFR serves an incremental pull, falling back to the full zone when
// the feed's history no longer covers the client's serial.
func (a *Authority) handleIXFR(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	origin := q.Q().Name
	a.mu.Lock()
	f := a.feeds[origin]
	a.mu.Unlock()
	if f == nil {
		resp.Header.RCode = dnswire.RCodeRefused
		return resp
	}
	var clientSerial uint32
	for _, rr := range q.Authority {
		if soa, ok := rr.Data.(dnswire.SOA); ok && rr.Type == dnswire.TypeSOA {
			clientSerial = soa.Serial
		}
	}
	soa, ok := f.Zone().SOA()
	if !ok {
		resp.Header.RCode = dnswire.RCodeServFail
		return resp
	}
	resp.Header.AA = true
	changes, covered := f.ChangesSince(clientSerial)
	if covered {
		resp.AddAnswer(soa)
		if len(changes) > 0 {
			for _, cs := range changes {
				resp.AddAnswer(cs.Del...)
				resp.AddAnswer(cs.Add...)
			}
			resp.AddAnswer(soa)
		}
		a.ixfrServed.Inc()
		return resp
	}
	// Full-zone fallback, AXFR-framed; the SOA read above says there is one.
	resp.Answer, _ = f.Zone().Transfer()
	a.axfrServed.Inc()
	return resp
}
