package dnswire

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Header is the fixed 12-byte DNS message header (RFC 1035 §4.1.1), with
// the flag bits broken out.
type Header struct {
	ID     uint16
	QR     bool // response
	Opcode Opcode
	AA     bool // authoritative answer
	TC     bool // truncated
	RD     bool // recursion desired
	RA     bool // recursion available
	AD     bool // authentic data (RFC 4035)
	CD     bool // checking disabled (RFC 4035)
	RCode  RCode
}

// Question is the query tuple (RFC 1035 §4.1.2).
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// Message is a full DNS message.
type Message struct {
	Header     Header
	Question   []Question
	Answer     []RR
	Authority  []RR
	Additional []RR
}

// NewQuery builds a standard recursive query for (name, type).
func NewQuery(id uint16, name Name, t Type) *Message {
	return &Message{
		Header:   Header{ID: id, RD: true, Opcode: OpcodeQuery},
		Question: []Question{{Name: name, Type: t, Class: ClassIN}},
	}
}

// NewIterativeQuery builds a non-recursive query, as a recursive resolver
// sends to authoritative servers.
func NewIterativeQuery(id uint16, name Name, t Type) *Message {
	return &Message{
		Header:   Header{ID: id, Opcode: OpcodeQuery},
		Question: []Question{{Name: name, Type: t, Class: ClassIN}},
	}
}

// Reply builds a response skeleton for m: same ID and question, QR set, and
// RD copied from the query per RFC 1035.
func (m *Message) Reply() *Message {
	resp := new(Message)
	m.ReplyInto(resp)
	return resp
}

// ReplyInto is Reply into a reset Message, reusing its question slice — the
// form for a pooled reply.
func (m *Message) ReplyInto(resp *Message) {
	resp.Header = Header{
		ID:     m.Header.ID,
		QR:     true,
		Opcode: m.Header.Opcode,
		RD:     m.Header.RD,
	}
	resp.Question = append(resp.Question[:0], m.Question...)
}

// Reply-matching errors: a reply that does not answer the query it came
// back for. Allocation-free, so a retry loop stays clean.
var (
	// ErrIDMismatch marks a reply whose QR bit is clear or whose ID is not
	// the query's.
	ErrIDMismatch = errors.New("dnswire: response ID mismatch")
	// ErrQuestionMismatch marks a reply whose question is not the query's.
	ErrQuestionMismatch = errors.New("dnswire: response question mismatch")
)

// CheckReply reports whether resp answers the query with this id and
// question: QR is set, the ID matches and q is resp's one question (RFC 5452
// §9.1). Decoded names are lower-case, so a case-varied echo matches.
func CheckReply(resp *Message, id uint16, q Question) error {
	switch {
	case !resp.Header.QR || resp.Header.ID != id:
		return ErrIDMismatch
	case len(resp.Question) != 1 || resp.Question[0] != q:
		return ErrQuestionMismatch
	}
	return nil
}

// Reset clears m for reuse, keeping the section slices' capacity so a
// pooled Message can absorb a Decoder.Decode without reallocating.
func (m *Message) Reset() {
	m.Header = Header{}
	m.Question = m.Question[:0]
	m.Answer = m.Answer[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]
}

var messagePool = sync.Pool{New: func() any { return new(Message) }}

// AcquireMessage returns a pooled, reset Message for short-lived use (e.g.
// decoding a query that is fully consumed before the reply is built).
// Callers must not retain any reference into it past ReleaseMessage.
func AcquireMessage() *Message { return messagePool.Get().(*Message) }

// ReleaseMessage returns m to the pool.
func ReleaseMessage(m *Message) {
	m.Reset()
	messagePool.Put(m)
}

// Q returns the first question, or a zero Question if there is none.
func (m *Message) Q() Question {
	if len(m.Question) == 0 {
		return Question{}
	}
	return m.Question[0]
}

// AnswerTTL returns the TTL a response carries: its first answer record's,
// or 0 for a response without answers. Query logs, traces and the answer-TTL
// histogram all mean this one number.
func (m *Message) AnswerTTL() uint32 {
	if len(m.Answer) == 0 {
		return 0
	}
	return m.Answer[0].TTL
}

// Section returns the records in the given message section.
func (m *Message) Section(s Section) []RR {
	switch s {
	case SectionAnswer:
		return m.Answer
	case SectionAuthority:
		return m.Authority
	default:
		return m.Additional
	}
}

// AddAnswer, AddAuthority and AddAdditional append records to the respective
// sections.
func (m *Message) AddAnswer(rrs ...RR)     { m.Answer = append(m.Answer, rrs...) }
func (m *Message) AddAuthority(rrs ...RR)  { m.Authority = append(m.Authority, rrs...) }
func (m *Message) AddAdditional(rrs ...RR) { m.Additional = append(m.Additional, rrs...) }

// AnswersFor returns the answer-section records matching name and type
// (following no CNAMEs).
func (m *Message) AnswersFor(name Name, t Type) []RR {
	var out []RR
	for _, rr := range m.Answer {
		if rr.Name == name && rr.Type == t {
			out = append(out, rr)
		}
	}
	return out
}

// IsReferral reports whether the message is a delegation referral: no
// answers, not authoritative, and NS records in the authority section.
func (m *Message) IsReferral() bool {
	if m.Header.RCode != RCodeNoError || len(m.Answer) > 0 {
		return false
	}
	for _, rr := range m.Authority {
		if rr.Type == TypeNS {
			return true
		}
	}
	return false
}

// String renders the message in a dig-like textual form.
func (m *Message) String() string {
	var b strings.Builder
	h := m.Header
	fmt.Fprintf(&b, ";; opcode: %s, status: %s, id: %d\n", h.Opcode, h.RCode, h.ID)
	b.WriteString(";; flags:")
	for _, f := range []struct {
		on   bool
		name string
	}{{h.QR, "qr"}, {h.AA, "aa"}, {h.TC, "tc"}, {h.RD, "rd"}, {h.RA, "ra"}, {h.AD, "ad"}, {h.CD, "cd"}} {
		if f.on {
			b.WriteString(" " + f.name)
		}
	}
	fmt.Fprintf(&b, "; QUERY: %d, ANSWER: %d, AUTHORITY: %d, ADDITIONAL: %d\n",
		len(m.Question), len(m.Answer), len(m.Authority), len(m.Additional))
	if len(m.Question) > 0 {
		b.WriteString(";; QUESTION SECTION:\n")
		for _, q := range m.Question {
			fmt.Fprintf(&b, ";%s\n", q)
		}
	}
	writeSection := func(title string, rrs []RR) {
		if len(rrs) == 0 {
			return
		}
		fmt.Fprintf(&b, ";; %s SECTION:\n", title)
		for _, rr := range rrs {
			b.WriteString(rr.String())
			b.WriteByte('\n')
		}
	}
	writeSection("ANSWER", m.Answer)
	writeSection("AUTHORITY", m.Authority)
	writeSection("ADDITIONAL", m.Additional)
	return b.String()
}
