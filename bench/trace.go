package main

import (
	"net/netip"
	"sort"
	"sync/atomic"
	"time"

	"dnsttl/internal/simnet"
)

// The traced run records four spans per query, all from this package:
// bench.query (client send to validated reply) contains dnsttl.serve (the
// resolver's handler), which contains one transport.exchange per upstream
// query, which contains authoritative.serve (the authoritative's handler).
type spanKind uint8

const (
	spanQuery spanKind = iota
	spanServe
	spanExchange
	spanAuth
	numSpanKinds
)

// span is one recorded interval. Its parent is the span of the kind above
// it with the same sequence number whose interval contains it.
type span struct {
	kind spanKind
	// ambiguous marks a dnsttl.serve span that ran while another query
	// for the same name was being served: upstream queries carry only the
	// qname, so neither query's exchanges can be told from the other's and
	// the reducer leaves both out.
	ambiguous  bool
	seq        uint32 // query sequence number within the timed section
	start, end int64  // ns since the tracer's epoch
}

// tracer keeps spans in a preallocated array; recording is one atomic add
// and one store, so the wrappers allocate nothing.
type tracer struct {
	epoch  time.Time
	issued *atomic.Int64
	base   int64 // issued at the start of the timed section
	on     atomic.Bool
	n      atomic.Int64
	spans  []span
	// inflight holds (sequence number, name index) of the queries the
	// resolver is serving, so an upstream query is attributed to the
	// client query that caused it by its qname.
	inflight [8]atomic.Uint64
}

func newTracer(issued *atomic.Int64, capacity int) *tracer {
	return &tracer{epoch: time.Now(), issued: issued, spans: make([]span, capacity)}
}

// begin starts recording; sequence numbers count from the current value of
// the issued counter.
func (t *tracer) begin() {
	t.base = t.issued.Load()
	t.on.Store(true)
}

func (t *tracer) record(k spanKind, seq uint32, t0, t1 time.Time) {
	t.put(span{kind: k, seq: seq, start: int64(t0.Sub(t.epoch)), end: int64(t1.Sub(t.epoch))})
}

func (t *tracer) put(s span) {
	if !t.on.Load() {
		return
	}
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = s
	}
}

// recorded returns the spans kept and how many did not fit.
func (t *tracer) recorded() (spans []span, dropped int64) {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// seqFromID recovers a query's sequence number from the DNS ID it carries.
// The ID is the low 16 bits of the sequence number, and the closed loop
// keeps every in-flight query within a few of the issued counter.
func seqFromID(id uint16, issued int64) uint32 {
	last := issued - 1
	return uint32(last - (last-int64(id))&0xFFFF)
}

// An inflight slot holds the busy bit, the ambiguous bit, the sequence
// number and, in the low indexBits, the name index.
const (
	slotBusy      = 1 << 63
	slotAmbiguous = 1 << 62
	slotIndex     = 1<<indexBits - 1
)

// claim registers a query being served and returns its slot, or -1 when
// all are taken. It marks every in-flight query for the same name,
// itself included, ambiguous. Two claims racing for one name both store
// before they scan, so at least one of them sees the other.
func (t *tracer) claim(seq uint32, idx int) int {
	v := slotBusy | uint64(seq)<<indexBits | uint64(idx)
	mine := -1
	for i := range t.inflight {
		if t.inflight[i].CompareAndSwap(0, v) {
			mine = i
			break
		}
	}
	if mine < 0 {
		return -1
	}
	for i := range t.inflight {
		if i == mine {
			continue
		}
		if o := t.inflight[i].Load(); o&slotBusy != 0 && int(o&slotIndex) == idx {
			t.inflight[i].CompareAndSwap(o, o|slotAmbiguous)
			t.inflight[mine].Store(v | slotAmbiguous)
		}
	}
	return mine
}

// release frees a slot and reports whether its query was marked ambiguous.
func (t *tracer) release(slot int) bool {
	return t.inflight[slot].Swap(0)&slotAmbiguous != 0
}

func (t *tracer) lookup(idx int) (uint32, bool) {
	for i := range t.inflight {
		if v := t.inflight[i].Load(); v&slotBusy != 0 && int(v&slotIndex) == idx {
			return uint32(v &^ (slotBusy | slotAmbiguous) >> indexBits), true
		}
	}
	return 0, false
}

// wrapServe times the resolver's handler and registers the query it serves.
func (t *tracer) wrapServe(inner simnet.Handler) simnet.Handler {
	return simnet.HandlerFunc(func(wire []byte, from netip.Addr) []byte {
		idx, ok := wireIndex(wire)
		if !ok || !t.on.Load() {
			return inner.ServeDNS(wire, from)
		}
		seq := seqFromID(uint16(wire[0])<<8|uint16(wire[1]), t.issued.Load()-t.base)
		slot := t.claim(seq, idx)
		t0 := time.Now()
		resp := inner.ServeDNS(wire, from)
		t1 := time.Now()
		t.put(span{kind: spanServe, seq: seq, ambiguous: slot < 0 || t.release(slot),
			start: int64(t0.Sub(t.epoch)), end: int64(t1.Sub(t.epoch))})
		return resp
	})
}

type tracedExchanger struct {
	t     *tracer
	inner simnet.Exchanger
}

// wrapExchanger times every upstream exchange the resolver makes.
func (t *tracer) wrapExchanger(inner simnet.Exchanger) simnet.Exchanger {
	return tracedExchanger{t, inner}
}

func (x tracedExchanger) Exchange(src, dst netip.Addr, query []byte) ([]byte, time.Duration, error) {
	seq, ok := x.t.attribute(query)
	t0 := time.Now()
	resp, rtt, err := x.inner.Exchange(src, dst, query)
	if ok {
		x.t.record(spanExchange, seq, t0, time.Now())
	}
	return resp, rtt, err
}

// wrapAuthoritative times the authoritative server's handler.
func (t *tracer) wrapAuthoritative(inner simnet.Handler) simnet.Handler {
	return simnet.HandlerFunc(func(wire []byte, from netip.Addr) []byte {
		seq, ok := t.attribute(wire)
		t0 := time.Now()
		resp := inner.ServeDNS(wire, from)
		if ok {
			t.record(spanAuth, seq, t0, time.Now())
		}
		return resp
	})
}

// attribute finds the client query an upstream query wire belongs to.
func (t *tracer) attribute(wire []byte) (uint32, bool) {
	if !t.on.Load() {
		return 0, false
	}
	idx, ok := wireIndex(wire)
	if !ok {
		return 0, false
	}
	return t.lookup(idx)
}

// interval is a half-open [start, end) stretch of the tracer's clock.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// selfTime is the parent's duration minus the part of it its children
// cover. Children are clipped to the parent and overlapping children are
// counted once. children is sorted in place.
func selfTime(parent interval, children []interval) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	covered, edge := int64(0), parent.start
	for _, c := range children {
		lo, hi := max(c.start, edge), min(c.end, parent.end)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return parent.dur() - covered
}

// traceSummary is what the reducer makes of one traced run.
type traceSummary struct {
	queries           int     // queries with a complete, unambiguous span set
	ambiguous         int     // queries left out because another for the same name was in flight
	sumMismatches     int     // queries whose self times do not add up to bench.query
	queryP50          float64 // µs
	listenerSelfP50   float64
	serveP50          float64
	serveSelfP50      float64
	exchangeP50       float64
	exchangeSelfP50   float64
	authP50           float64
	exchangesPerQuery float64
	droppedSpans      int64
}

// reduce groups spans by query and splits each query's time into the four
// self times. For every query it checks that they add up to the bench.query
// span exactly; that holds when each span lies inside its parent and
// siblings do not overlap.
func reduce(spans []span, dropped int64) traceSummary {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.start < b.start
	})
	sum := traceSummary{droppedSpans: dropped}
	var query, listener, serve, serveSelf, exch, exchSelf, auth []int64
	var nExch int
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].seq == spans[lo].seq {
			hi++
		}
		group := spans[lo:hi]
		lo = hi
		var byKind [numSpanKinds][]interval
		ambiguous := false
		for _, s := range group {
			byKind[s.kind] = append(byKind[s.kind], interval{s.start, s.end})
			ambiguous = ambiguous || s.ambiguous
		}
		if len(byKind[spanQuery]) != 1 || len(byKind[spanServe]) != 1 {
			continue // a failed query, or a span that did not fit the array
		}
		if ambiguous {
			sum.ambiguous++
			continue
		}
		q, s := byKind[spanQuery][0], byKind[spanServe][0]
		sum.queries++
		lSelf := selfTime(q, []interval{s})
		sSelf := selfTime(s, append([]interval(nil), byKind[spanExchange]...))
		var eSelf, aTotal int64
		for _, e := range byKind[spanExchange] {
			var inside []interval
			for _, a := range byKind[spanAuth] {
				if a.start >= e.start && a.end <= e.end {
					inside = append(inside, a)
				}
			}
			self := selfTime(e, inside)
			eSelf += self
			exch = append(exch, e.dur())
			exchSelf = append(exchSelf, self)
		}
		for _, a := range byKind[spanAuth] {
			aTotal += a.dur()
			auth = append(auth, a.dur())
		}
		if lSelf+sSelf+eSelf+aTotal != q.dur() {
			sum.sumMismatches++
		}
		nExch += len(byKind[spanExchange])
		query = append(query, q.dur())
		listener = append(listener, lSelf)
		serve = append(serve, s.dur())
		serveSelf = append(serveSelf, sSelf)
	}
	us := func(v []int64) float64 { return float64(medianInt64(v)) / 1e3 }
	sum.queryP50, sum.listenerSelfP50 = us(query), us(listener)
	sum.serveP50, sum.serveSelfP50 = us(serve), us(serveSelf)
	sum.exchangeP50, sum.exchangeSelfP50, sum.authP50 = us(exch), us(exchSelf), us(auth)
	if sum.queries > 0 {
		sum.exchangesPerQuery = float64(nExch) / float64(sum.queries)
	}
	return sum
}
