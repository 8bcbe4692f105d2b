package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
)

// Decoding errors.
var (
	ErrShortMessage    = errors.New("dnswire: message too short")
	ErrPointerLoop     = errors.New("dnswire: compression pointer loop")
	ErrTrailingGarbage = errors.New("dnswire: bytes remain after final record")
)

// maxInterned bounds the decoder's name and RData intern tables; past this
// the tables are cleared rather than growing without bound.
const maxInterned = 8192

// boxKey identifies an interned RData value. One key type covers the hot
// record families: addresses (A/AAAA), name-valued RData (NS/CNAME/PTR) and
// MX (name + preference).
type boxKey struct {
	t    Type
	name Name
	pref uint16
	addr netip.Addr
}

// NameSource lends a Decoder names its caller already holds — a server's
// zone owners, a resolver's own question — so that a decode does not spell
// a second copy of a string someone keeps anyway.
type NameSource interface {
	// LendName returns a held Name whose bytes are exactly spelling, a
	// lower-case wire spelling with its trailing dot, or false.
	LendName(spelling []byte) (Name, bool)
}

// Decoder parses wire-format messages into caller-owned Messages, reusing
// the target's RR slices and interning names and hot RData values so that a
// steady-state decode allocates nothing. A Decoder is not safe for
// concurrent use; use AcquireDecoder/ReleaseDecoder for a pooled one.
type Decoder struct {
	// Names, when set, is asked for a name the intern table has not seen
	// before its spelling is allocated. ReleaseDecoder clears it.
	Names NameSource

	wire    []byte
	off     int
	scratch []byte // name assembly buffer

	// names interns decoded names by raw wire spelling (case included);
	// boxes interns the interface-boxed RData values whose boxing would
	// otherwise allocate on every record.
	names map[string]Name
	boxes map[boxKey]RData
	opts  map[OPT]RData
}

// NewDecoder returns a ready Decoder with empty intern tables.
func NewDecoder() *Decoder {
	return &Decoder{
		names: make(map[string]Name),
		boxes: make(map[boxKey]RData),
		opts:  make(map[OPT]RData),
	}
}

var decoderPool = sync.Pool{New: func() any { return NewDecoder() }}

// AcquireDecoder returns a pooled Decoder. Pooled decoders keep their warm
// intern tables across uses, which is what makes the server's per-query
// decode path allocation-free.
func AcquireDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// ReleaseDecoder returns d to the pool. The caller must not use d after.
func ReleaseDecoder(d *Decoder) {
	d.wire, d.Names = nil, nil
	decoderPool.Put(d)
}

// Decode parses a wire-format DNS message into a fresh Message.
func Decode(wire []byte) (*Message, error) {
	d := AcquireDecoder()
	m := &Message{}
	err := d.Decode(wire, m)
	ReleaseDecoder(d)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Decode parses wire into m, resetting m first and reusing its section
// slices. The decoded Message shares no state with the Decoder other than
// immutable interned values, so m stays valid after the Decoder is released
// or reused.
func (d *Decoder) Decode(wire []byte, m *Message) error {
	d.wire, d.off = wire, 0
	if len(d.names) > maxInterned {
		clear(d.names)
	}
	if len(d.boxes) > maxInterned {
		clear(d.boxes)
	}
	m.Reset()

	qd, an, ns, ar, err := d.readHeader(&m.Header)
	if err != nil {
		return err
	}
	for i := 0; i < qd; i++ {
		q, err := d.readQuestion()
		if err != nil {
			return fmt.Errorf("question %d: %w", i, err)
		}
		m.Question = append(m.Question, q)
	}
	var (
		opt    OPT // by value: a pointer to the asserted copy would escape
		hasOPT bool
	)
	read := func(n int, dst *[]RR, sec string) error {
		for i := 0; i < n; i++ {
			rr, err := d.readRR()
			if err != nil {
				return fmt.Errorf("%s record %d: %w", sec, i, err)
			}
			if rr.Type == TypeOPT {
				if o, ok := rr.Data.(OPT); ok {
					opt, hasOPT = o, true
				}
			}
			*dst = append(*dst, rr)
		}
		return nil
	}
	if err := read(an, &m.Answer, "answer"); err != nil {
		return err
	}
	if err := read(ns, &m.Authority, "authority"); err != nil {
		return err
	}
	if err := read(ar, &m.Additional, "additional"); err != nil {
		return err
	}
	if hasOPT {
		// Fold the extended RCode bits in (RFC 6891 §6.1.3).
		m.Header.RCode |= RCode(opt.ExtendedRCode) << 4
	}
	if d.off != len(d.wire) {
		return ErrTrailingGarbage
	}
	return nil
}

func (d *Decoder) need(n int) error {
	if d.off+n > len(d.wire) {
		return ErrShortMessage
	}
	return nil
}

func (d *Decoder) readU8() (uint8, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.wire[d.off]
	d.off++
	return v, nil
}

func (d *Decoder) readU16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(d.wire[d.off:])
	d.off += 2
	return v, nil
}

func (d *Decoder) readU32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(d.wire[d.off:])
	d.off += 4
	return v, nil
}

func (d *Decoder) readHeader(h *Header) (qd, an, ns, ar int, err error) {
	if err = d.need(12); err != nil {
		return
	}
	h.ID = binary.BigEndian.Uint16(d.wire)
	flags := binary.BigEndian.Uint16(d.wire[2:])
	h.QR = flags&(1<<15) != 0
	h.Opcode = Opcode(flags >> 11 & 0xF)
	h.AA = flags&(1<<10) != 0
	h.TC = flags&(1<<9) != 0
	h.RD = flags&(1<<8) != 0
	h.RA = flags&(1<<7) != 0
	h.AD = flags&(1<<5) != 0
	h.CD = flags&(1<<4) != 0
	h.RCode = RCode(flags & 0xF)
	qd = int(binary.BigEndian.Uint16(d.wire[4:]))
	an = int(binary.BigEndian.Uint16(d.wire[6:]))
	ns = int(binary.BigEndian.Uint16(d.wire[8:]))
	ar = int(binary.BigEndian.Uint16(d.wire[10:]))
	d.off = 12
	return
}

// internName canonicalizes the name assembled in d.scratch, reusing a
// previously decoded Name when the same spelling has been seen, or one the
// name source lends. The map lookup with a string([]byte) key compiles to a
// no-allocation access; a first sighting pays for one string, which an
// already-canonical spelling shares between the key and the Name.
//
// A lent name is taken only for a canonical spelling it matches byte for
// byte, which is then exactly what NewName would build; it is not interned,
// so the table pins nothing the source holds.
func (d *Decoder) internName() Name {
	if n, ok := d.names[string(d.scratch)]; ok {
		return n
	}
	if d.Names != nil && isCanonical(d.scratch) {
		if n, ok := d.Names.LendName(d.scratch); ok && string(n) == string(d.scratch) {
			return n
		}
	}
	spelling := string(d.scratch)
	n := NewName(spelling)
	d.names[spelling] = n
	return n
}

// isCanonical reports whether NewName leaves spelling as it is: ASCII with
// no upper-case letter (the trailing dot is the decoder's).
func isCanonical(spelling []byte) bool {
	for _, b := range spelling {
		if b >= 0x80 || 'A' <= b && b <= 'Z' {
			return false
		}
	}
	return true
}

// readName reads a possibly-compressed name starting at the current offset.
func (d *Decoder) readName() (Name, error) {
	name, next, err := d.readNameAt(d.off)
	if err != nil {
		return "", err
	}
	d.off = next
	return name, nil
}

// readNameAt reads a name at offset off, following compression pointers,
// and returns the name plus the offset just past the name's bytes at the
// top level (pointers are not followed for the return offset).
func (d *Decoder) readNameAt(off int) (Name, int, error) {
	wire := d.wire
	d.scratch = d.scratch[:0]
	ret := -1 // offset to return to after first pointer
	hops := 0
	for {
		if off >= len(wire) {
			return "", 0, ErrShortMessage
		}
		b := wire[off]
		switch {
		case b == 0:
			if ret < 0 {
				ret = off + 1
			}
			if len(d.scratch) == 0 {
				return Root, ret, nil
			}
			return d.internName(), ret, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(wire) {
				return "", 0, ErrShortMessage
			}
			ptr := int(binary.BigEndian.Uint16(wire[off:]) & 0x3FFF)
			if ret < 0 {
				ret = off + 2
			}
			hops++
			if hops > 127 || ptr >= off {
				// A pointer must point strictly backwards; forward or
				// self-pointers can only form loops.
				return "", 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type %#x", b&0xC0)
		default:
			n := int(b)
			if off+1+n > len(wire) {
				return "", 0, ErrShortMessage
			}
			d.scratch = append(d.scratch, wire[off+1:off+1+n]...)
			d.scratch = append(d.scratch, '.')
			off += 1 + n
		}
	}
}

func (d *Decoder) readQuestion() (Question, error) {
	name, err := d.readName()
	if err != nil {
		return Question{}, err
	}
	t, err := d.readU16()
	if err != nil {
		return Question{}, err
	}
	c, err := d.readU16()
	if err != nil {
		return Question{}, err
	}
	return Question{Name: name, Type: Type(t), Class: Class(c)}, nil
}

// box returns the interned interface value for k, constructing it with mk
// on first sighting. Boxing a concrete RData value into `any` heap-allocates
// in Go; interning makes repeat decodes of the same records free.
func (d *Decoder) box(k boxKey, mk func(boxKey) RData) RData {
	if v, ok := d.boxes[k]; ok {
		return v
	}
	v := mk(k)
	d.boxes[k] = v
	return v
}

// The constructors are named functions (not closures) so the hit path does
// not allocate a closure per record.
func mkA(k boxKey) RData     { return A{Addr: k.addr} }
func mkAAAA(k boxKey) RData  { return AAAA{Addr: k.addr} }
func mkNS(k boxKey) RData    { return NS{Host: k.name} }
func mkCNAME(k boxKey) RData { return CNAME{Target: k.name} }
func mkPTR(k boxKey) RData   { return PTR{Target: k.name} }
func mkMX(k boxKey) RData    { return MX{Preference: k.pref, Host: k.name} }

func (d *Decoder) boxOPT(o OPT) RData {
	if v, ok := d.opts[o]; ok {
		return v
	}
	v := RData(o)
	d.opts[o] = v
	return v
}

func (d *Decoder) readRR() (RR, error) {
	name, err := d.readName()
	if err != nil {
		return RR{}, err
	}
	t16, err := d.readU16()
	if err != nil {
		return RR{}, err
	}
	c16, err := d.readU16()
	if err != nil {
		return RR{}, err
	}
	ttl, err := d.readU32()
	if err != nil {
		return RR{}, err
	}
	rdlen, err := d.readU16()
	if err != nil {
		return RR{}, err
	}
	if err := d.need(int(rdlen)); err != nil {
		return RR{}, err
	}
	rr := RR{Name: name, Type: Type(t16), Class: Class(c16), TTL: ttl}
	end := d.off + int(rdlen)
	if rr.Type == TypeOPT {
		// RFC 6891: class is the UDP size, TTL carries flags.
		rr.Data = d.boxOPT(OPT{
			UDPSize:       c16,
			ExtendedRCode: uint8(ttl >> 24),
			Version:       uint8(ttl >> 16),
			DO:            ttl&(1<<15) != 0,
		})
		d.off = end // option TLVs are skipped
		return rr, nil
	}
	if err := d.readRData(&rr, end); err != nil {
		return RR{}, err
	}
	if d.off != end {
		return RR{}, fmt.Errorf("dnswire: RDATA length mismatch for %s %s", name, rr.Type)
	}
	return rr, nil
}

func (d *Decoder) readRData(rr *RR, end int) error {
	switch rr.Type {
	case TypeA:
		if end-d.off != 4 {
			return fmt.Errorf("dnswire: A RDATA must be 4 bytes, got %d", end-d.off)
		}
		var b [4]byte
		copy(b[:], d.wire[d.off:end])
		d.off = end
		rr.Data = d.box(boxKey{t: TypeA, addr: netip.AddrFrom4(b)}, mkA)
	case TypeAAAA:
		if end-d.off != 16 {
			return fmt.Errorf("dnswire: AAAA RDATA must be 16 bytes, got %d", end-d.off)
		}
		var b [16]byte
		copy(b[:], d.wire[d.off:end])
		d.off = end
		rr.Data = d.box(boxKey{t: TypeAAAA, addr: netip.AddrFrom16(b)}, mkAAAA)
	case TypeNS:
		host, err := d.readName()
		if err != nil {
			return err
		}
		rr.Data = d.box(boxKey{t: TypeNS, name: host}, mkNS)
	case TypeCNAME:
		target, err := d.readName()
		if err != nil {
			return err
		}
		rr.Data = d.box(boxKey{t: TypeCNAME, name: target}, mkCNAME)
	case TypePTR:
		target, err := d.readName()
		if err != nil {
			return err
		}
		rr.Data = d.box(boxKey{t: TypePTR, name: target}, mkPTR)
	case TypeMX:
		pref, err := d.readU16()
		if err != nil {
			return err
		}
		host, err := d.readName()
		if err != nil {
			return err
		}
		rr.Data = d.box(boxKey{t: TypeMX, name: host, pref: pref}, mkMX)
	case TypeTXT:
		var txt TXT
		for d.off < end {
			n, err := d.readU8()
			if err != nil {
				return err
			}
			if d.off+int(n) > end {
				return ErrShortMessage
			}
			txt.Strings = append(txt.Strings, string(d.wire[d.off:d.off+int(n)]))
			d.off += int(n)
		}
		rr.Data = txt
	case TypeSOA:
		var s SOA
		var err error
		if s.MName, err = d.readName(); err != nil {
			return err
		}
		if s.RName, err = d.readName(); err != nil {
			return err
		}
		for _, p := range []*uint32{&s.Serial, &s.Refresh, &s.Retry, &s.Expire, &s.Minimum} {
			if *p, err = d.readU32(); err != nil {
				return err
			}
		}
		rr.Data = s
	case TypeDNSKEY, TypeDS:
		// Both are 2+1+1 fixed octets and an opaque tail (RFC 4034 §2.1, §5.1).
		rdata := d.wire[d.off:end]
		if len(rdata) < 4 {
			return fmt.Errorf("dnswire: %s RDATA must be at least 4 bytes, got %d", rr.Type, len(rdata))
		}
		u16, tail := binary.BigEndian.Uint16(rdata), append([]byte(nil), rdata[4:]...)
		d.off = end
		if rr.Type == TypeDNSKEY {
			rr.Data = DNSKEY{Flags: u16, Protocol: rdata[2], Algorithm: rdata[3], PublicKey: tail}
		} else {
			rr.Data = DS{KeyTag: u16, Algorithm: rdata[2], DigestType: rdata[3], Digest: tail}
		}
	case TypeRRSIG:
		var s RRSIG
		tc, err := d.readU16()
		if err != nil {
			return err
		}
		s.TypeCovered = Type(tc)
		if s.Algorithm, err = d.readU8(); err != nil {
			return err
		}
		if s.Labels, err = d.readU8(); err != nil {
			return err
		}
		for _, p := range []*uint32{&s.OriginalTTL, &s.Expiration, &s.Inception} {
			if *p, err = d.readU32(); err != nil {
				return err
			}
		}
		if s.KeyTag, err = d.readU16(); err != nil {
			return err
		}
		if s.SignerName, err = d.readName(); err != nil {
			return err
		}
		if d.off > end {
			return ErrShortMessage
		}
		s.Signature = append([]byte(nil), d.wire[d.off:end]...)
		d.off = end
		rr.Data = s
	default:
		rr.Data = Unknown{T: rr.Type, Raw: append([]byte(nil), d.wire[d.off:end]...)}
		d.off = end
	}
	return nil
}
