package push

import (
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

// stubNet answers every exchange with what its function makes of the
// query; a nil reply is a timeout.
type stubNet func(q *dnswire.Message) *dnswire.Message

func (f stubNet) Exchange(_, _ netip.Addr, wire []byte) ([]byte, time.Duration, error) {
	q, err := dnswire.Decode(wire)
	if err != nil {
		return nil, 0, err
	}
	resp := f(q)
	if resp == nil {
		return nil, simnet.DefaultTimeout, simnet.ErrTimeout
	}
	out, err := dnswire.Encode(resp)
	return out, time.Millisecond, err
}

// TestSubscribeRejectsForeignReply: a NOERROR SOA reply is a subscription
// only when it answers the subscribe request. One for another zone's
// question, or with another ID, books a retry and leaves the serial alone.
func TestSubscribeRejectsForeignReply(t *testing.T) {
	origin := dnswire.NewName("example.org")
	for name, forge := range map[string]func(*dnswire.Message){
		"another zone": func(m *dnswire.Message) { m.Question[0].Name = dnswire.NewName("example.com") },
		"wrong ID":     func(m *dnswire.Message) { m.Header.ID++ },
	} {
		sub := NewSubscriber(Config{
			Addr:  subAddr,
			Clock: simnet.NewVirtualClock(),
			Net: stubNet(func(q *dnswire.Message) *dnswire.Message {
				resp := q.Reply()
				forge(resp)
				resp.AddAnswer(dnswire.NewSOA(resp.Q().Name.String(), 3600, "ns1.example.org", "admin.example.org", 9, 7200, 3600, 1209600, 300))
				return resp
			}),
		})
		sub.Subscribe(origin, authAddr)
		st := sub.Stats()
		sub.mu.Lock()
		serial := sub.zones[origin].serial
		sub.mu.Unlock()
		if st.Subscribes != 0 || st.SubscribeRetries != 1 || serial != 0 {
			t.Errorf("%s: subscribes %d, retries %d, serial %d; want 0, 1, 0", name, st.Subscribes, st.SubscribeRetries, serial)
		}
	}
}

// FuzzParseIXFR classifies the answer section of arbitrary transfer replies.
// parseIXFR never panics; an incremental answer it accepts is a chain of
// change sets, each section led by the SOA at its serial, ending at the head
// serial; a full transfer it accepts is the answer without its two framing
// SOAs.
func FuzzParseIXFR(f *testing.F) {
	f.Fuzz(func(t *testing.T, wire []byte) {
		resp, err := dnswire.Decode(wire)
		if err != nil {
			return
		}
		ans := resp.Answer
		cur, changes, full, upToDate, err := parseIXFR(ans)
		switch {
		case err != nil:
		case upToDate:
			if changes != nil || full != nil {
				t.Fatalf("up to date at %d with %d change sets and %d records", cur, len(changes), len(full))
			}
		case full != nil:
			if len(full) != len(ans)-2 || ans[0].Type != dnswire.TypeSOA || ans[len(ans)-1].Type != dnswire.TypeSOA {
				t.Fatalf("full transfer of %d records from a %d-record answer", len(full), len(ans))
			}
		default:
			for i, cs := range changes {
				if i > 0 && cs.From != changes[i-1].To {
					t.Fatalf("change set %d starts at %d, the one before ends at %d", i, cs.From, changes[i-1].To)
				}
				if !ledBy(cs.Del, cs.From) || !ledBy(cs.Add, cs.To) {
					t.Fatalf("change set %d->%d: a section is not led by its SOA", cs.From, cs.To)
				}
			}
			if last := changes[len(changes)-1].To; last != cur {
				t.Fatalf("change sets end at %d, head serial %d", last, cur)
			}
		}
	})
}

// ledBy reports whether sec starts with the SOA at serial.
func ledBy(sec []dnswire.RR, serial uint32) bool {
	if len(sec) == 0 || sec[0].Type != dnswire.TypeSOA {
		return false
	}
	soa, ok := sec[0].Data.(dnswire.SOA)
	return ok && soa.Serial == serial
}

// FuzzHandleNotifyWire hands arbitrary datagrams to a subscriber with one
// zone whose authority never answers. It never panics, and it acknowledges
// nothing but a NOTIFY query, and an ack carries the query's ID.
func FuzzHandleNotifyWire(f *testing.F) {
	origin := dnswire.NewName("example.org")
	f.Fuzz(func(t *testing.T, wire []byte) {
		sub := NewSubscriber(Config{
			Addr:   subAddr,
			Clock:  simnet.NewVirtualClock(),
			Stores: []cache.Store{cache.New(simnet.NewVirtualClock(), cache.Config{})},
			Net:    stubNet(func(*dnswire.Message) *dnswire.Message { return nil }),
		})
		sub.Subscribe(origin, authAddr)
		ack := sub.HandleNotifyWire(wire, authAddr)
		q, err := dnswire.Decode(wire)
		if err != nil || q.Header.Opcode != dnswire.OpcodeNotify || q.Header.QR {
			if ack != nil {
				t.Fatalf("acknowledged a non-NOTIFY or a response: %x", ack)
			}
			return
		}
		if ack == nil {
			return
		}
		if a, err := dnswire.Decode(ack); err != nil || !a.Header.QR || a.Header.ID != q.Header.ID {
			t.Fatalf("NOTIFY ack %x does not answer the NOTIFY (%v)", ack, err)
		}
	})
}
