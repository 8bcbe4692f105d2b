package authoritative

import (
	"fmt"
	"net/netip"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

// TypeAXFR is the zone-transfer query type (RFC 1035 §3.2.3). Transfers
// run over TCP; this implementation answers with a single message carrying
// the SOA-framed record list, which is sufficient for the zone sizes this
// module moves (the root zone for RFC 7706 mirrors).
const TypeAXFR = dnswire.Type(252)

// handleAXFR builds the transfer response: the whole zone when this server
// holds it, REFUSED when it does not, SERVFAIL when it has no SOA to frame
// the transfer with.
func (s *Server) handleAXFR(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	z := s.Zone(q.Q().Name)
	if z == nil {
		resp.Header.RCode = dnswire.RCodeRefused
		return resp
	}
	var ok bool
	if resp.Answer, ok = z.Transfer(); !ok {
		resp.Header.RCode = dnswire.RCodeServFail
		return resp
	}
	resp.Header.AA = true
	return resp
}

// FetchZone performs an AXFR against server over x and reconstructs the
// zone — how an RFC 7706 mirror obtains the root zone. x is a TCP net, since
// a transfer does not fit a datagram.
func FetchZone(x simnet.Exchanger, server netip.Addr, origin dnswire.Name) (*zone.Zone, error) {
	q := dnswire.NewIterativeQuery(uint16(time.Now().UnixNano()), origin, TypeAXFR)
	resp, _, err := simnet.Ask(x, netip.Addr{}, server, q)
	if err != nil {
		return nil, err
	}
	if resp.Header.RCode != dnswire.RCodeNoError {
		return nil, fmt.Errorf("authoritative: AXFR refused: %s", resp.Header.RCode)
	}
	if len(resp.Answer) < 2 ||
		resp.Answer[0].Type != dnswire.TypeSOA ||
		resp.Answer[len(resp.Answer)-1].Type != dnswire.TypeSOA {
		return nil, fmt.Errorf("authoritative: AXFR response not SOA-framed")
	}
	z := zone.New(origin)
	for _, rr := range resp.Answer[:len(resp.Answer)-1] {
		if err := z.Add(rr); err != nil {
			return nil, fmt.Errorf("authoritative: AXFR record %s: %w", rr.Name, err)
		}
	}
	return z, nil
}
