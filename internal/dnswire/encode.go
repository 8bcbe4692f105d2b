package dnswire

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Compression-table geometry. A referral-sized message registers a couple
// dozen distinct name suffixes; 128 open-addressed slots with a fill bound
// keeps probes short. When the table fills, further suffixes simply go
// uncompressed — output stays valid, deterministically.
const (
	compSlots   = 128
	compMaxFill = 96
)

// compEntry is one slot of the open-addressed compression table. gen makes
// reset O(1): a slot is live only when its generation matches the encoder's.
type compEntry struct {
	gen    uint32
	off    uint16
	suffix Name
}

// encoder serializes a message with RFC 1035 §4.1.4 name compression.
// Encoders are pooled; the per-Encode map of the original implementation is
// replaced by the fixed open-addressed table so the hot path allocates
// nothing beyond the output buffer.
type encoder struct {
	buf []byte
	// base is the offset of the message's first byte in buf: AppendEncode
	// targets may already carry bytes, and compression pointers are
	// relative to the message start.
	base int
	// qEnd is the offset just past the question section, for in-place
	// truncation in EncodeWithLimit.
	qEnd int

	gen     uint32
	tabFill int
	tab     [compSlots]compEntry
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

func (e *encoder) reset(dst []byte) {
	e.buf = dst
	e.base = len(dst)
	e.qEnd = 0
	e.tabFill = 0
	e.gen++
	if e.gen == 0 { // generation wrapped: stale slots could alias, clear
		e.tab = [compSlots]compEntry{}
		e.gen = 1
	}
}

// compHash is FNV-1a over the suffix bytes. It is a fixed function (not a
// seeded hash) so encoded output — including which suffixes win table slots
// — is byte-identical across processes, which experiment determinism
// depends on.
func compHash(s Name) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// lookup returns the registered offset of suffix, if any.
func (e *encoder) lookup(suffix Name) (uint16, bool) {
	i := compHash(suffix) % compSlots
	for {
		s := &e.tab[i]
		if s.gen != e.gen {
			return 0, false
		}
		if s.suffix == suffix {
			return s.off, true
		}
		i = (i + 1) % compSlots
	}
}

// insert registers suffix at off; full tables drop the registration.
func (e *encoder) insert(suffix Name, off uint16) {
	if e.tabFill >= compMaxFill {
		return
	}
	i := compHash(suffix) % compSlots
	for e.tab[i].gen == e.gen {
		if e.tab[i].suffix == suffix {
			return
		}
		i = (i + 1) % compSlots
	}
	e.tab[i] = compEntry{gen: e.gen, off: off, suffix: suffix}
	e.tabFill++
}

// Encode serializes m to wire format. It never truncates; callers enforcing
// UDP size limits should use EncodeWithLimit.
func Encode(m *Message) ([]byte, error) {
	return AppendEncode(nil, m)
}

// AppendEncode serializes m, appending to dst (which may be nil), and
// returns the extended slice. With a dst of sufficient capacity the encode
// is allocation-free; this is the hot-path entry point the server and
// resolver query builders use with pooled buffers.
func AppendEncode(dst []byte, m *Message) ([]byte, error) {
	return AppendEncodeWithLimit(dst, m, 0)
}

// EncodeWithLimit is AppendEncodeWithLimit into a fresh buffer.
func EncodeWithLimit(m *Message, limit int) ([]byte, error) {
	return AppendEncodeWithLimit(nil, m, limit)
}

// AppendEncodeWithLimit serializes m onto dst like AppendEncode, and if the
// message exceeds limit bytes (limit <= 0 means no limit) it appends a
// truncated message instead: header with TC set, question retained, all RR
// sections dropped — the conservative behavior of most servers. Truncation
// patches the already-encoded bytes in place rather than encoding twice.
func AppendEncodeWithLimit(dst []byte, m *Message, limit int) ([]byte, error) {
	if cap(dst) == 0 {
		// Pre-size for a typical referral-sized message so the common case
		// is a single allocation instead of a chain of append growths.
		dst = make([]byte, 0, 512)
	}
	e := encoderPool.Get().(*encoder)
	e.reset(dst)
	wire, err := e.encode(m)
	base, qEnd := e.base, e.qEnd
	e.buf = nil // do not retain the caller's buffer in the pool
	encoderPool.Put(e)
	if err != nil {
		return nil, err
	}
	if limit <= 0 || len(wire)-base <= limit {
		return wire, nil
	}
	// Drop every RR section: cut at the end of the question, set TC
	// (bit 9 of the flags word at bytes 2-3), zero AN/NS/AR counts.
	// Question-name compression only ever points into the question itself,
	// so the retained prefix stays self-contained.
	wire = wire[:base+qEnd]
	msg := wire[base:]
	msg[2] |= 0x02
	for i := 6; i < 12; i++ {
		msg[i] = 0
	}
	return wire, nil
}

// StampReply overwrites the transaction ID and the RD flag in the header of
// an encoded message. Serve paths encode a response that may be shared
// between callers (coalesced resolutions) and then make it this client's
// reply by patching the bytes, never the Message.
func StampReply(msg []byte, id uint16, rd bool) {
	binary.BigEndian.PutUint16(msg, id)
	msg[2] &^= 0x01
	if rd {
		msg[2] |= 0x01
	}
}

// AppendFormErr appends the header-only FORMERR reply to a query that could
// not be parsed, echoing the transaction ID from its first two bytes. A
// query too short to carry a header gets no reply: dst comes back unextended.
func AppendFormErr(dst, query []byte) []byte {
	if len(query) < 12 {
		return dst
	}
	return append(dst, query[0], query[1], 0x80, byte(RCodeFormErr), 0, 0, 0, 0, 0, 0, 0, 0)
}

// ResponseLimit is the size bound a server applies to the reply to q:
// 65535, the frame limit, on stream transports (TCP, DoT, DoH); on UDP the
// classic 512 bytes unless q carried an OPT record, in which case the
// client's advertised size clamped to [512, MaxEDNSSize] (RFC 6891 §6.2.5).
func ResponseLimit(q *Message, stream bool) int {
	if stream {
		return 0xFFFF
	}
	limit := MaxUDPSize
	for _, rr := range q.Additional {
		if opt, ok := rr.Data.(OPT); ok {
			limit = int(opt.UDPSize)
			if limit < MaxUDPSize {
				limit = MaxUDPSize
			}
			if limit > MaxEDNSSize {
				limit = MaxEDNSSize
			}
		}
	}
	return limit
}

func (e *encoder) encode(m *Message) ([]byte, error) {
	e.writeHeader(m)
	for _, q := range m.Question {
		if err := e.writeName(q.Name); err != nil {
			return nil, err
		}
		e.writeU16(uint16(q.Type))
		e.writeU16(uint16(q.Class))
	}
	e.qEnd = len(e.buf) - e.base
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			if err := e.writeRR(rr); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

func (e *encoder) writeHeader(m *Message) {
	h := m.Header
	var flags uint16
	if h.QR {
		flags |= 1 << 15
	}
	flags |= uint16(h.Opcode&0xF) << 11
	if h.AA {
		flags |= 1 << 10
	}
	if h.TC {
		flags |= 1 << 9
	}
	if h.RD {
		flags |= 1 << 8
	}
	if h.RA {
		flags |= 1 << 7
	}
	if h.AD {
		flags |= 1 << 5
	}
	if h.CD {
		flags |= 1 << 4
	}
	flags |= uint16(h.RCode) & 0xF
	e.writeU16(h.ID)
	e.writeU16(flags)
	e.writeU16(uint16(len(m.Question)))
	e.writeU16(uint16(len(m.Answer)))
	e.writeU16(uint16(len(m.Authority)))
	e.writeU16(uint16(len(m.Additional)))
}

func (e *encoder) writeU8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) writeU16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) writeU32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// writeName emits name with compression: at each label boundary, if the
// remaining suffix has been emitted before at an offset that fits in 14
// bits, a pointer is written instead. Names are stored canonically, so
// every suffix is a zero-copy slice of the name itself.
func (e *encoder) writeName(name Name) error {
	if err := name.Valid(); err != nil {
		return err
	}
	s := string(name)
	if name.IsRoot() {
		e.writeU8(0)
		return nil
	}
	pos := 0
	for pos < len(s) {
		suffix := Name(s[pos:])
		if off, ok := e.lookup(suffix); ok {
			e.writeU16(0xC000 | off)
			return nil
		}
		if off := len(e.buf) - e.base; off < 0x4000 {
			e.insert(suffix, uint16(off))
		}
		end := pos
		for s[end] != '.' {
			end++
		}
		label := s[pos:end]
		e.writeU8(uint8(len(label)))
		e.buf = append(e.buf, label...)
		pos = end + 1
	}
	e.writeU8(0)
	return nil
}

func (e *encoder) writeRR(rr RR) error {
	if rr.Type == TypeOPT {
		return e.writeOPT(rr)
	}
	if err := e.writeName(rr.Name); err != nil {
		return err
	}
	e.writeU16(uint16(rr.Type))
	e.writeU16(uint16(rr.Class))
	e.writeU32(rr.TTL)

	// Reserve RDLENGTH, fill after writing RDATA.
	lenAt := len(e.buf)
	e.writeU16(0)
	start := len(e.buf)
	if err := e.writeRData(rr); err != nil {
		return err
	}
	rdlen := len(e.buf) - start
	if rdlen > 0xFFFF {
		return fmt.Errorf("dnswire: RDATA of %s too long (%d bytes)", rr.Name, rdlen)
	}
	binary.BigEndian.PutUint16(e.buf[lenAt:], uint16(rdlen))
	return nil
}

func (e *encoder) writeOPT(rr RR) error {
	opt, ok := rr.Data.(OPT)
	if !ok {
		return fmt.Errorf("dnswire: OPT record without OPT data")
	}
	e.writeU8(0) // root owner name
	e.writeU16(uint16(TypeOPT))
	e.writeU16(opt.UDPSize)
	var ttl uint32
	ttl |= uint32(opt.ExtendedRCode) << 24
	ttl |= uint32(opt.Version) << 16
	if opt.DO {
		ttl |= 1 << 15
	}
	e.writeU32(ttl)
	e.writeU16(0) // no options
	return nil
}

func (e *encoder) writeRData(rr RR) error {
	switch d := rr.Data.(type) {
	case nil:
		return nil
	case Unknown:
		e.buf = append(e.buf, d.Raw...)
	case A:
		if !d.Addr.Is4() {
			return fmt.Errorf("dnswire: A record %s carries non-IPv4 address %s", rr.Name, d.Addr)
		}
		b := d.Addr.As4()
		e.buf = append(e.buf, b[:]...)
	case AAAA:
		if !d.Addr.Is6() || d.Addr.Is4In6() {
			return fmt.Errorf("dnswire: AAAA record %s carries non-IPv6 address %s", rr.Name, d.Addr)
		}
		b := d.Addr.As16()
		e.buf = append(e.buf, b[:]...)
	case NS:
		return e.writeName(d.Host)
	case CNAME:
		return e.writeName(d.Target)
	case PTR:
		return e.writeName(d.Target)
	case MX:
		e.writeU16(d.Preference)
		return e.writeName(d.Host)
	case TXT:
		for _, s := range d.Strings {
			if len(s) > 255 {
				return fmt.Errorf("dnswire: TXT string exceeds 255 bytes")
			}
			e.writeU8(uint8(len(s)))
			e.buf = append(e.buf, s...)
		}
	case SOA:
		if err := e.writeName(d.MName); err != nil {
			return err
		}
		if err := e.writeName(d.RName); err != nil {
			return err
		}
		e.writeU32(d.Serial)
		e.writeU32(d.Refresh)
		e.writeU32(d.Retry)
		e.writeU32(d.Expire)
		e.writeU32(d.Minimum)
	case DNSKEY:
		e.writeU16(d.Flags)
		e.writeU8(d.Protocol)
		e.writeU8(d.Algorithm)
		e.buf = append(e.buf, d.PublicKey...)
	case DS:
		e.writeU16(d.KeyTag)
		e.writeU8(d.Algorithm)
		e.writeU8(d.DigestType)
		e.buf = append(e.buf, d.Digest...)
	case RRSIG:
		e.writeU16(uint16(d.TypeCovered))
		e.writeU8(d.Algorithm)
		e.writeU8(d.Labels)
		e.writeU32(d.OriginalTTL)
		e.writeU32(d.Expiration)
		e.writeU32(d.Inception)
		e.writeU16(d.KeyTag)
		// RFC 4034 §3.1.7: the signer name is not compressed.
		e.writeNameUncompressed(d.SignerName)
		e.buf = append(e.buf, d.Signature...)
	default:
		return fmt.Errorf("dnswire: cannot encode RDATA type %T", rr.Data)
	}
	return nil
}

func (e *encoder) writeNameUncompressed(name Name) {
	for it := name.Iter(); ; {
		label, ok := it.Next()
		if !ok {
			break
		}
		e.writeU8(uint8(len(label)))
		e.buf = append(e.buf, label...)
	}
	e.writeU8(0)
}
