// Package qlog is the module's structured query-log plane: dnstap-shaped
// capture of individual DNS events — client queries arriving, responses
// leaving, upstream exchanges — at the resolver, the farm's frontends, and
// the authoritative servers.
//
// Where internal/obs aggregates (counters, histograms), qlog records: each
// captured event is one compact Record carrying timestamp, peer address,
// qname/qtype, rcode, answer TTL, cache outcome, latency, and transport.
// That stream is exactly the raw material of the paper's §3.4 passive
// methodology, so rotated logs feed straight into internal/entrada
// (cmd/dnstop) and reproduce the Figures 3/4 statistics from live traffic.
//
// The write path follows the module's alloc-pin discipline: producers
// publish into a fixed, lock-free MPMC ring (one CAS, no allocation, no
// blocking — a full ring drops the record and counts the drop), and a
// single consumer goroutine drains the ring, encodes (JSONL or a
// length-prefixed binary framing), and writes through a size-rotated file
// set. A nil *Logger or nil *Tap is a valid no-op costing one pointer
// check, so capture points need no "is logging on" branches of their own.
package qlog

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// Point is the capture point a record was taken at.
type Point uint8

const (
	// PointClientIn marks a query arriving from a client.
	PointClientIn Point = iota
	// PointResponseOut marks a response leaving for a client.
	PointResponseOut
	// PointUpstream marks one upstream exchange performed by a resolver.
	PointUpstream
	// PointNotify marks a push-plane NOTIFY arriving at a subscriber
	// (internal/push). Its Record reuses Name for the zone origin and TTL
	// for the advertised zone serial.
	PointNotify
)

// pointNames is each Point's one spelling — JSONL field, -points value and
// dnstop label. String, MarshalText and UnmarshalText all read it.
var pointNames = [...]string{PointClientIn: "client", PointResponseOut: "response", PointUpstream: "upstream", PointNotify: "notify"}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", uint8(p))
}

func (p Point) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *Point) UnmarshalText(b []byte) error {
	i := slices.Index(pointNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("qlog: unknown capture point %q (want one of %q)", b, pointNames)
	}
	*p = Point(i)
	return nil
}

// Outcome classifies how a response was produced (or how an upstream
// exchange ended). OutcomeNone is used where the concept does not apply
// (client-in records, authoritative responses, successful upstream
// exchanges).
type Outcome uint8

const (
	OutcomeNone Outcome = iota
	// OutcomeMiss: the response required upstream iteration.
	OutcomeMiss
	// OutcomeHit: answered from cache without any upstream query.
	OutcomeHit
	// OutcomeStale: answered past its TTL (RFC 8767 serve-stale).
	OutcomeStale
	// OutcomeCoalesced: answered by joining an identical in-flight query.
	OutcomeCoalesced
	// OutcomeTimeout: an upstream exchange that timed out.
	OutcomeTimeout
	// OutcomeError: an upstream exchange that failed for another reason.
	OutcomeError
	// OutcomeBlocked: answered by a middleware blocklist or static-answer
	// stage without consulting the resolver. (Appended for the middleware
	// plane; the binary encoding stores Outcome as a raw byte, so new
	// values append only.)
	OutcomeBlocked
	// OutcomeLimited: refused (or dropped) by a middleware per-client
	// rate-limiter stage.
	OutcomeLimited
)

// outcomeNames is each Outcome's one spelling, read as pointNames is.
// OutcomeNone's is empty: JSONL omits the field for it.
var outcomeNames = [...]string{OutcomeNone: "", OutcomeMiss: "miss", OutcomeHit: "hit", OutcomeStale: "stale",
	OutcomeCoalesced: "coalesced", OutcomeTimeout: "timeout", OutcomeError: "error", OutcomeBlocked: "blocked", OutcomeLimited: "limited"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

func (o Outcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

func (o *Outcome) UnmarshalText(b []byte) error {
	i := slices.Index(outcomeNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("qlog: unknown outcome %q (want one of %q)", b, outcomeNames)
	}
	*o = Outcome(i)
	return nil
}

// Record is one captured event. It is a value type holding no heap
// references beyond the (immutable) Name and Transport strings, so writing
// one into a ring slot is a plain copy.
type Record struct {
	// Time is the capture timestamp in Unix nanoseconds.
	Time int64
	// LatencyUS is the event's latency in microseconds: client wall time
	// for response-out records, exchange RTT for upstream records, 0 for
	// client-in records.
	LatencyUS int64
	// Client is the peer: the querying client for client-in/response-out
	// records, the upstream server for upstream records.
	Client netip.Addr
	// Name and Type identify the question.
	Name dnswire.Name
	Type dnswire.Type
	// Point is where the record was captured.
	Point Point
	// Outcome classifies response-out records (hit/miss/stale/coalesced)
	// and failed upstream exchanges (timeout/error).
	Outcome Outcome
	// RCode is the response code (response-out and successful upstream
	// records).
	RCode dnswire.RCode
	// TTL is the TTL of the first answer record, in seconds; 0 when the
	// response carried no answers.
	TTL uint32
	// Transport labels the wire the event used ("udp", "tcp", "dot",
	// "doh", "sim", ...).
	Transport string
}

// Metric names under which New registers the logger's telemetry.
const (
	// MetricRecords counts records accepted into the ring.
	MetricRecords = "qlog.records"
	// MetricDropped counts records lost to a full ring (backpressure is
	// never applied to the serving path).
	MetricDropped = "qlog.dropped"
	// MetricSampledOut counts records skipped by the 1-in-N or per-client
	// sampling configuration.
	MetricSampledOut = "qlog.sampled_out"
	// MetricBytes counts bytes written to the active log file.
	MetricBytes = "qlog.bytes_written"
	// MetricRotations counts completed file rotations.
	MetricRotations = "qlog.rotations"
	// MetricWriteErrors counts encode/write failures (the record is lost).
	MetricWriteErrors = "qlog.write_errors"
)

// Format selects the on-disk encoding.
type Format uint8

const (
	// FormatJSONL writes one JSON object per line — greppable, and what
	// cmd/dnstop reads by default.
	FormatJSONL Format = iota
	// FormatBinary writes the length-prefixed binary framing — roughly 4x
	// denser than JSONL, for high-QPS captures.
	FormatBinary
)

// formatNames is each Format's one spelling (the -qlog-format values), read
// as pointNames is.
var formatNames = [...]string{FormatJSONL: "jsonl", FormatBinary: "binary"}

func (f Format) String() string {
	if int(f) < len(formatNames) {
		return formatNames[f]
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

func (f Format) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

func (f *Format) UnmarshalText(b []byte) error {
	i := slices.Index(formatNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("qlog: unknown format %q (want one of %q)", b, formatNames)
	}
	*f = Format(i)
	return nil
}

// Config parameterizes a Logger.
type Config struct {
	// Path is the active log file; rotations shift it to Path.1, Path.2, …
	Path string
	// Format selects the encoding; the zero value is JSONL.
	Format Format
	// MaxBytes rotates the active file when it exceeds this size;
	// 0 means 64 MiB.
	MaxBytes int64
	// MaxFiles bounds the rotated set (active file included); 0 means 4.
	MaxFiles int
	// RingSize is the capture ring's capacity, rounded up to a power of
	// two; 0 means 8192. A full ring drops records (counted), it never
	// blocks the serving path.
	RingSize int
	// SampleN keeps one record in N of each capture point's records
	// (applied after PerClientMod); 0 or 1 keeps all.
	SampleN int
	// PerClientMod keeps only clients whose address hash ≡ 0 (mod M),
	// preserving complete per-client streams for interarrival analysis
	// where 1-in-N sampling would shred them; 0 or 1 keeps all clients.
	PerClientMod int
	// Points is the capture-point mask; 0 means all points.
	Points PointMask
	// Registry, when non-nil, publishes the qlog.* counters.
	Registry *obs.Registry
	// Clock stamps records; nil means wall clock.
	Clock simnet.Clock
}

// flushEvery bounds how long a record may sit in the write buffer.
const flushEvery = 250 * time.Millisecond

// PointMask selects which capture points a Logger retains.
type PointMask uint8

const (
	MaskClientIn    PointMask = 1 << PointClientIn
	MaskResponseOut PointMask = 1 << PointResponseOut
	MaskUpstream    PointMask = 1 << PointUpstream
	MaskNotify      PointMask = 1 << PointNotify
	MaskAll                   = MaskClientIn | MaskResponseOut | MaskUpstream | MaskNotify
)

// String spells the mask as the -points flags take it, and MarshalText and
// UnmarshalText read the same grammar: "all", or pointNames joined by
// commas.
func (m PointMask) String() string {
	if m == 0 || m&^MaskAll != 0 {
		return fmt.Sprintf("PointMask(%d)", uint8(m))
	}
	if m == MaskAll {
		return "all"
	}
	var names []string
	for p, n := range pointNames {
		if m&(1<<p) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, ",")
}

func (m PointMask) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

func (m *PointMask) UnmarshalText(b []byte) error {
	if string(b) == "all" {
		*m = MaskAll
		return nil
	}
	var out PointMask
	for _, s := range strings.Split(string(b), ",") {
		var p Point
		if err := p.UnmarshalText([]byte(s)); err != nil {
			return fmt.Errorf("%w, or all", err)
		}
		out |= 1 << p
	}
	*m = out
	return nil
}

// slot is one ring cell: seq is the Vyukov MPMC sequence marker.
type slot struct {
	seq atomic.Uint64
	rec Record
}

// Logger is the async capture pipeline: producers Emit into the ring,
// one consumer goroutine drains, encodes, and writes through rotation.
// The nil *Logger is a valid no-op.
type Logger struct {
	cfg   Config
	clock simnet.Clock

	ring []slot
	mask uint64
	enq  atomic.Uint64 // next sequence producers claim
	deq  uint64        // next sequence the consumer reads (consumer-only)

	// sampleSeq is each capture point's 1-in-N position counter: one
	// shared counter would let one point's volume decide which of
	// another point's records survive. Eight, because the uint8 Points
	// mask admits no Point above 7.
	sampleSeq [8]atomic.Uint64

	// Accounting: Stats reads these, and a configured registry publishes
	// them, so each event counts once.
	records, dropped, sampledOut, writeErrors obs.Counter

	notify chan struct{} // kicked (non-blocking) on enqueue to wake the consumer
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once

	w   *rotatingWriter
	enc encoder
}

// New opens the log file and starts the consumer. Close flushes and stops.
func New(cfg Config) (*Logger, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("qlog: Config.Path is required")
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 8192
	}
	size := 1
	for size < cfg.RingSize {
		size <<= 1
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.MaxFiles <= 0 {
		cfg.MaxFiles = 4
	}
	if cfg.Points == 0 {
		cfg.Points = MaskAll
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simnet.WallClock{}
	}
	w, err := newRotatingWriter(cfg.Path, cfg.MaxBytes, cfg.MaxFiles)
	if err != nil {
		return nil, err
	}
	l := &Logger{
		cfg:    cfg,
		clock:  clock,
		ring:   make([]slot, size),
		mask:   uint64(size - 1),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		w:      w,
	}
	for i := range l.ring {
		l.ring[i].seq.Store(uint64(i))
	}
	if cfg.Format == FormatBinary {
		if err := w.writeHeader(binaryMagic); err != nil {
			_ = w.Close()
			return nil, err
		}
		l.enc = &binaryEncoder{}
	} else {
		l.enc = &jsonlEncoder{}
	}
	reg := cfg.Registry
	reg.CounterFunc(MetricRecords, l.records.Value)
	reg.CounterFunc(MetricDropped, l.dropped.Value)
	reg.CounterFunc(MetricSampledOut, l.sampledOut.Value)
	reg.CounterFunc(MetricWriteErrors, l.writeErrors.Value)
	reg.CounterFunc(MetricBytes, w.bytes.Value)
	reg.CounterFunc(MetricRotations, w.rotations.Value)
	go l.consume()
	return l, nil
}

// Tap returns an emit handle labeled with a transport ("udp", "dot", …).
// Taps are what capture points hold; a nil Logger yields a nil Tap, and
// every Tap method is nil-safe, so wiring is unconditional.
func (l *Logger) Tap(transport string) *Tap {
	if l == nil {
		return nil
	}
	return &Tap{l: l, transport: transport}
}

// Stats is the logger's accounting snapshot.
type Stats struct {
	Records     uint64 `json:"records"`
	Dropped     uint64 `json:"dropped"`
	SampledOut  uint64 `json:"sampled_out"`
	WriteErrors uint64 `json:"write_errors"`
	Rotations   uint64 `json:"rotations"`
	Bytes       uint64 `json:"bytes_written"`
}

// Stats returns the logger's counters (zero for a nil logger).
func (l *Logger) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	return Stats{
		Records:     l.records.Value(),
		Dropped:     l.dropped.Value(),
		SampledOut:  l.sampledOut.Value(),
		WriteErrors: l.writeErrors.Value(),
		Rotations:   l.w.rotations.Value(),
		Bytes:       l.w.bytes.Value(),
	}
}

// Emit offers one record to the ring. It never blocks: a full ring or a
// sampled-out record is counted and discarded. Emit is safe from any
// goroutine and allocation-free.
func (l *Logger) Emit(rec *Record) {
	if l == nil {
		return
	}
	if l.cfg.Points&(1<<rec.Point) == 0 {
		return
	}
	if m := l.cfg.PerClientMod; m > 1 && int(clientHash(rec.Client)%uint64(m)) != 0 {
		l.sampledOut.Inc()
		return
	}
	if n := l.cfg.SampleN; n > 1 && l.sampleSeq[rec.Point].Add(1)%uint64(n) != 0 {
		l.sampledOut.Inc()
		return
	}
	for {
		pos := l.enq.Load()
		s := &l.ring[pos&l.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if l.enq.CompareAndSwap(pos, pos+1) {
				s.rec = *rec
				s.seq.Store(pos + 1)
				l.records.Inc()
				select {
				case l.notify <- struct{}{}:
				default:
				}
				return
			}
		case seq < pos:
			// The consumer has not freed this slot: the ring is full.
			l.dropped.Inc()
			return
		default:
			// Another producer claimed pos; reload and retry.
		}
	}
}

// clientHash is a 64-bit FNV-1a over the address bytes, allocation-free.
func clientHash(a netip.Addr) uint64 {
	b := a.As16()
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// consume drains the ring, encodes, and writes until Close.
func (l *Logger) consume() {
	defer close(l.done)
	flush := time.NewTicker(flushEvery)
	defer flush.Stop()
	for {
		if l.drain() == 0 {
			select {
			case <-l.notify:
			case <-flush.C:
				l.flushWrite()
			case <-l.stop:
				l.drain()
				l.flushWrite()
				return
			}
		}
	}
}

// drain consumes every currently published slot, returning how many.
func (l *Logger) drain() int {
	n := 0
	for {
		s := &l.ring[l.deq&l.mask]
		if s.seq.Load() != l.deq+1 {
			return n
		}
		rec := s.rec
		s.seq.Store(l.deq + uint64(len(l.ring)))
		l.deq++
		n++
		if err := l.enc.encode(l.w, &rec); err != nil {
			l.writeErrors.Inc()
		}
	}
}

func (l *Logger) flushWrite() {
	if err := l.w.Flush(); err != nil {
		l.writeErrors.Inc()
	}
}

// Now returns the logger's clock reading in Unix nanoseconds.
func (l *Logger) Now() int64 { return l.clock.Now().UnixNano() }

// Close drains the ring, flushes, and closes the active file. A nil logger
// is a no-op.
func (l *Logger) Close() error {
	if l == nil {
		return nil
	}
	l.once.Do(func() { close(l.stop) })
	<-l.done
	return l.w.Close()
}

// Tap is a transport-labeled emit handle held by one capture point. All
// methods are nil-safe and allocation-free.
type Tap struct {
	l         *Logger
	transport string
}

// ClientIn records a query arriving from client.
func (t *Tap) ClientIn(client netip.Addr, name dnswire.Name, qtype dnswire.Type) {
	if t == nil {
		return
	}
	t.l.Emit(&Record{
		Time:      t.l.Now(),
		Client:    client,
		Name:      name,
		Type:      qtype,
		Point:     PointClientIn,
		Transport: t.transport,
	})
}

// ResponseOut records a response leaving for client.
func (t *Tap) ResponseOut(client netip.Addr, name dnswire.Name, qtype dnswire.Type,
	rcode dnswire.RCode, ttl uint32, outcome Outcome, latency time.Duration) {
	if t == nil {
		return
	}
	t.l.Emit(&Record{
		Time:      t.l.Now(),
		LatencyUS: int64(latency / time.Microsecond),
		Client:    client,
		Name:      name,
		Type:      qtype,
		Point:     PointResponseOut,
		Outcome:   outcome,
		RCode:     rcode,
		TTL:       ttl,
		Transport: t.transport,
	})
}

// NotifyIn records a push-plane NOTIFY for zone arriving from an
// authoritative server. The advertised serial rides in the TTL field.
func (t *Tap) NotifyIn(from netip.Addr, zone dnswire.Name, serial uint32) {
	if t == nil {
		return
	}
	t.l.Emit(&Record{
		Time:      t.l.Now(),
		Client:    from,
		Name:      zone,
		Type:      dnswire.TypeSOA,
		Point:     PointNotify,
		TTL:       serial,
		Transport: t.transport,
	})
}

// Upstream records one upstream exchange against server. outcome is
// OutcomeNone for successful exchanges, OutcomeTimeout/OutcomeError
// otherwise.
func (t *Tap) Upstream(server netip.Addr, name dnswire.Name, qtype dnswire.Type,
	rcode dnswire.RCode, ttl uint32, outcome Outcome, rtt time.Duration) {
	if t == nil {
		return
	}
	t.l.Emit(&Record{
		Time:      t.l.Now(),
		LatencyUS: int64(rtt / time.Microsecond),
		Client:    server,
		Name:      name,
		Type:      qtype,
		Point:     PointUpstream,
		Outcome:   outcome,
		RCode:     rcode,
		TTL:       ttl,
		Transport: t.transport,
	})
}
