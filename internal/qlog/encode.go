package qlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strconv"

	"dnsttl/internal/dnswire"
)

// binaryMagic opens every binary-format log file, so readers can
// auto-detect the encoding from the first bytes ('{' opens a JSONL file).
var binaryMagic = []byte("DQL1")

// encoder turns records into bytes on the consumer goroutine. Both
// implementations reuse a scratch buffer, so steady-state encoding is
// allocation-free.
type encoder interface {
	encode(w io.Writer, rec *Record) error
}

// jsonlEncoder writes one hand-built JSON object per line. Numeric codes
// (qtype, rcode) stay numeric — this is a machine format; dnstop renders
// the pretty names.
type jsonlEncoder struct {
	buf []byte
}

func (e *jsonlEncoder) encode(w io.Writer, rec *Record) error {
	b := e.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, rec.Time, 10)
	b = append(b, `,"point":"`...)
	b = append(b, rec.Point.String()...)
	b = append(b, `","transport":"`...)
	b = append(b, rec.Transport...)
	b = append(b, `","client":"`...)
	b = rec.Client.AppendTo(b)
	b = append(b, `","name":"`...)
	b = append(b, rec.Name...)
	b = append(b, `","type":`...)
	b = strconv.AppendUint(b, uint64(rec.Type), 10)
	b = append(b, `,"rcode":`...)
	b = strconv.AppendUint(b, uint64(rec.RCode), 10)
	b = append(b, `,"ttl":`...)
	b = strconv.AppendUint(b, uint64(rec.TTL), 10)
	if rec.Outcome != OutcomeNone {
		b = append(b, `,"outcome":"`...)
		b = append(b, rec.Outcome.String()...)
		b = append(b, '"')
	}
	b = append(b, `,"lat_us":`...)
	b = strconv.AppendInt(b, rec.LatencyUS, 10)
	b = append(b, '}', '\n')
	e.buf = b
	_, err := w.Write(b)
	return err
}

// jsonlRecord is the decode shape of one JSONL line. Point and Outcome
// decode through their UnmarshalText; Point is a pointer so that a line
// without one is an error, while an absent outcome is OutcomeNone.
type jsonlRecord struct {
	T         int64   `json:"t"`
	Point     *Point  `json:"point"`
	Transport string  `json:"transport"`
	Client    string  `json:"client"`
	Name      string  `json:"name"`
	Type      uint16  `json:"type"`
	RCode     uint16  `json:"rcode"`
	TTL       uint32  `json:"ttl"`
	Outcome   Outcome `json:"outcome"`
	LatUS     int64   `json:"lat_us"`
}

func decodeJSONLLine(line []byte, rec *Record) error {
	var jr jsonlRecord
	if err := json.Unmarshal(line, &jr); err != nil {
		return err
	}
	if jr.Point == nil {
		return fmt.Errorf("qlog: record has no point")
	}
	addr, err := netip.ParseAddr(jr.Client)
	if err != nil {
		return fmt.Errorf("qlog: bad client address %q: %w", jr.Client, err)
	}
	*rec = Record{
		Time:      jr.T,
		LatencyUS: jr.LatUS,
		Client:    addr,
		Name:      dnswire.Name(jr.Name),
		Type:      dnswire.Type(jr.Type),
		Point:     *jr.Point,
		Outcome:   jr.Outcome,
		RCode:     dnswire.RCode(jr.RCode),
		TTL:       jr.TTL,
		Transport: jr.Transport,
	}
	return nil
}

// binaryEncoder writes length-prefixed frames:
//
//	uvarint payloadLen | payload
//
// payload: uvarint time | lat | point | outcome | rcode(uvarint) |
// type(uvarint) | ttl(uvarint) | transportLen+bytes | addrLen+bytes |
// nameLen+bytes. Times and latencies are unsigned (they are never
// negative in practice; negative values would round-trip via two's
// complement anyway since we cast, but we document them unsupported).
type binaryEncoder struct {
	buf   []byte // payload scratch
	frame []byte // len-prefix + payload scratch
}

func (e *binaryEncoder) encode(w io.Writer, rec *Record) error {
	b := e.buf[:0]
	b = binary.AppendUvarint(b, uint64(rec.Time))
	b = binary.AppendUvarint(b, uint64(rec.LatencyUS))
	b = append(b, byte(rec.Point), byte(rec.Outcome))
	b = binary.AppendUvarint(b, uint64(rec.RCode))
	b = binary.AppendUvarint(b, uint64(rec.Type))
	b = binary.AppendUvarint(b, uint64(rec.TTL))
	b = binary.AppendUvarint(b, uint64(len(rec.Transport)))
	b = append(b, rec.Transport...)
	addr := rec.Client.As16()
	if rec.Client.Is4() {
		a4 := rec.Client.As4()
		b = append(b, 4)
		b = append(b, a4[:]...)
	} else {
		b = append(b, 16)
		b = append(b, addr[:]...)
	}
	b = binary.AppendUvarint(b, uint64(len(rec.Name)))
	b = append(b, rec.Name...)
	e.buf = b

	f := e.frame[:0]
	f = binary.AppendUvarint(f, uint64(len(b)))
	f = append(f, b...)
	e.frame = f
	_, err := w.Write(f)
	return err
}

func decodeBinaryPayload(b []byte, rec *Record) error {
	u := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("qlog: truncated varint")
		}
		b = b[n:]
		return v, nil
	}
	t, err := u()
	if err != nil {
		return err
	}
	lat, err := u()
	if err != nil {
		return err
	}
	if len(b) < 2 {
		return fmt.Errorf("qlog: truncated record")
	}
	point, outcome := Point(b[0]), Outcome(b[1])
	if int(point) >= len(pointNames) || int(outcome) >= len(outcomeNames) {
		return fmt.Errorf("qlog: bad point %d or outcome %d", b[0], b[1])
	}
	b = b[2:]
	rcode, err := u()
	if err != nil {
		return err
	}
	qtype, err := u()
	if err != nil {
		return err
	}
	ttl, err := u()
	if err != nil {
		return err
	}
	tlen, err := u()
	if err != nil {
		return err
	}
	if uint64(len(b)) < tlen {
		return fmt.Errorf("qlog: truncated transport")
	}
	transport := string(b[:tlen])
	b = b[tlen:]
	if len(b) < 1 {
		return fmt.Errorf("qlog: truncated address")
	}
	alen := int(b[0])
	b = b[1:]
	if alen != 4 && alen != 16 || len(b) < alen {
		return fmt.Errorf("qlog: bad address length %d", alen)
	}
	var addr netip.Addr
	var ok bool
	addr, ok = netip.AddrFromSlice(b[:alen])
	if !ok {
		return fmt.Errorf("qlog: bad address bytes")
	}
	b = b[alen:]
	nlen, err := u()
	if err != nil {
		return err
	}
	if uint64(len(b)) < nlen {
		return fmt.Errorf("qlog: truncated name")
	}
	name := string(b[:nlen])
	*rec = Record{
		Time:      int64(t),
		LatencyUS: int64(lat),
		Client:    addr,
		Name:      dnswire.Name(name),
		Type:      dnswire.Type(qtype),
		Point:     point,
		Outcome:   outcome,
		RCode:     dnswire.RCode(rcode),
		TTL:       uint32(ttl),
		Transport: transport,
	}
	return nil
}

// Reader iterates the records of one log file, auto-detecting the
// encoding from the first bytes. Decode failures are counted and skipped
// (JSONL) or terminate the file (binary, where framing is lost), so a
// crash-truncated tail never aborts an analysis.
type Reader struct {
	r      *bufio.Reader
	closer io.Closer
	binary bool
	errs   int
}

// OpenFile opens one log file for reading.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	head, _ := r.Peek(len(binaryMagic))
	rd := &Reader{r: r, closer: f}
	if bytes.Equal(head, binaryMagic) {
		rd.binary = true
		_, _ = r.Discard(len(binaryMagic))
	}
	return rd, nil
}

// Next fills rec with the next record. It returns io.EOF at the end of
// the file; decode errors are counted (see DecodeErrors) and skipped when
// possible.
func (rd *Reader) Next(rec *Record) error {
	if rd.binary {
		return rd.nextBinary(rec)
	}
	return rd.nextJSONL(rec)
}

func (rd *Reader) nextJSONL(rec *Record) error {
	for {
		line, err := rd.r.ReadBytes('\n')
		if len(line) == 0 && err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			if err == io.EOF {
				return io.EOF
			}
			continue
		}
		if err == io.EOF && line[len(line)-1] != '\n' {
			// A torn final line (crash mid-write): count, stop.
			rd.errs++
			return io.EOF
		}
		if derr := decodeJSONLLine(trimmed, rec); derr != nil {
			rd.errs++
			continue
		}
		return nil
	}
}

func (rd *Reader) nextBinary(rec *Record) error {
	n, err := binary.ReadUvarint(rd.r)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		rd.errs++
		return io.EOF
	}
	if n > 1<<20 {
		// An implausible frame means lost framing; stop the file.
		rd.errs++
		return io.EOF
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(rd.r, payload); err != nil {
		rd.errs++
		return io.EOF
	}
	if err := decodeBinaryPayload(payload, rec); err != nil {
		rd.errs++
		return io.EOF
	}
	return nil
}

// DecodeErrors reports how many records failed to decode so far.
func (rd *Reader) DecodeErrors() int { return rd.errs }

// Close releases the underlying file (no-op for in-memory readers).
func (rd *Reader) Close() error {
	if rd.closer == nil {
		return nil
	}
	return rd.closer.Close()
}

// RotatedSet returns the file set of a rotated capture in chronological
// order (oldest first): base.<maxIndex> … base.1, base. Missing rotation
// files are skipped; the base file must exist.
func RotatedSet(base string) ([]string, error) {
	if _, err := os.Stat(base); err != nil {
		return nil, err
	}
	var out []string
	// Probe upward until the first gap; rotations shift contiguously.
	var present []string
	for i := 1; ; i++ {
		p := fmt.Sprintf("%s.%d", base, i)
		if _, err := os.Stat(p); err != nil {
			break
		}
		present = append(present, p)
	}
	for i := len(present) - 1; i >= 0; i-- {
		out = append(out, present[i])
	}
	return append(out, base), nil
}

// ReadAll decodes every record across the given files (in order),
// returning the records and the total decode-error count.
func ReadAll(paths ...string) ([]Record, int, error) {
	var out []Record
	errs := 0
	for _, p := range paths {
		r, err := OpenFile(p)
		if err != nil {
			return nil, errs, err
		}
		var rec Record
		for {
			if err := r.Next(&rec); err != nil {
				break
			}
			out = append(out, rec)
		}
		errs += r.DecodeErrors()
		_ = r.Close()
	}
	return out, errs, nil
}
