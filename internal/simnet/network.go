package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsttl/internal/dnswire"
)

// Handler is the server side of the message plane. It receives raw wire
// bytes and returns raw wire bytes, so every hop exercises the real codec.
// A nil response means the server drops the query.
type Handler interface {
	ServeDNS(wire []byte, from netip.Addr) []byte
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(wire []byte, from netip.Addr) []byte

// ServeDNS calls f.
func (f HandlerFunc) ServeDNS(wire []byte, from netip.Addr) []byte { return f(wire, from) }

// AppendHandler is the allocation-free form of Handler that a serving loop
// with reusable buffers calls: the response is appended to dst and the
// extended slice returned; returning dst unextended drops the query.
//
// wire is valid only for the duration of the call — the caller reuses its
// buffer for the next query — so an implementation must copy whatever it
// keeps (decoded names and records are copies already). The same holds for
// the wire a UDP, TCP or DoT listener hands to a plain Handler.
type AppendHandler interface {
	AppendServeDNS(dst, wire []byte, from netip.Addr) []byte
}

// AsAppendHandler returns h itself when it implements AppendHandler, and
// otherwise an adapter that copies each ServeDNS response onto dst.
func AsAppendHandler(h Handler) AppendHandler {
	if ah, ok := h.(AppendHandler); ok {
		return ah
	}
	return copyingHandler{h}
}

// Yielder is a Handler that says when a query is about to wait. A UDP
// listener serves each datagram on the loop that read it, and that loop
// holds the socket until something calls yield: only then does another loop
// take over reading. Listen hands yield to BindYield once, before the first
// query; the handler calls it before anything that may block (an upstream
// exchange, a wait on another query's flight, an Ask). Only the query that
// waits calls it, and only its own listener's yield. A handler that is not
// a Yielder is served as if it called yield first thing.
type Yielder interface {
	BindYield(yield func())
}

type copyingHandler struct{ Handler }

func (c copyingHandler) AppendServeDNS(dst, wire []byte, from netip.Addr) []byte {
	return append(dst, c.ServeDNS(wire, from)...)
}

// Exchanger is the client side: send a query to dst, get the response and
// the round-trip time. Both the in-memory Network and the real-socket
// adapter transport.Net implement this.
type Exchanger interface {
	Exchange(src, dst netip.Addr, query []byte) (resp []byte, rtt time.Duration, err error)
}

// AppendExchanger is the client-side twin of AppendHandler, the form a
// resolver with a reusable reply buffer calls: the response is appended to
// buf and the extended slice returned (buf unextended on error), so the
// reply lands in the caller's buffer and is the caller's to reuse. offset
// positions the exchange past the clock's current instant for the fault
// schedule: a resolver passes the latency its resolution has already
// accumulated (RTTs, backoffs), so a retry after backoff can genuinely ride
// out a flap window. Exchange is the nil-buffer form at offset 0.
type AppendExchanger interface {
	AppendExchange(buf []byte, src, dst netip.Addr, query []byte, offset time.Duration) (resp []byte, rtt time.Duration, err error)
}

// AppendExchange exchanges over x in the append form: x's own when it
// implements AppendExchanger, and otherwise Exchange's response copied onto
// buf, the offset unused.
func AppendExchange(x Exchanger, buf []byte, src, dst netip.Addr, query []byte, offset time.Duration) ([]byte, time.Duration, error) {
	if ax, ok := x.(AppendExchanger); ok {
		return ax.AppendExchange(buf, src, dst, query, offset)
	}
	resp, rtt, err := x.Exchange(src, dst, query)
	if err != nil {
		return buf, rtt, err
	}
	return append(buf, resp...), rtt, nil
}

// askWire is one Ask's pooled scratch: the query's wire and the buffer its
// reply is appended to. Both are free again once the reply is decoded, as a
// decoded Message aliases nothing of its wire.
type askWire struct{ query, reply []byte }

// maxPooledAsk bounds the buffers a pooled askWire keeps, so that a rare
// large (zone transfer) reply is not pinned in the pool.
const maxPooledAsk = 4096

var askPool = sync.Pool{New: func() any { return new(askWire) }}

// Ask is the one-shot client every caller without a pooled path uses: it
// encodes q, exchanges it over x, decodes the reply and returns it only if
// dnswire.CheckReply says it answers q. The RCODE is the caller's to judge.
// The returned Message is the caller's.
func Ask(x Exchanger, src, dst netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	w := askPool.Get().(*askWire)
	defer func() {
		if cap(w.query) <= maxPooledAsk && cap(w.reply) <= maxPooledAsk {
			askPool.Put(w)
		}
	}()
	wire, err := dnswire.AppendEncode(w.query[:0], q)
	if err != nil {
		return nil, 0, err
	}
	w.query = wire
	respWire, rtt, err := AppendExchange(x, w.reply[:0], src, dst, wire, 0)
	w.reply = respWire
	if err != nil {
		return nil, rtt, err
	}
	resp, err := dnswire.Decode(respWire)
	if err == nil {
		err = dnswire.CheckReply(resp, q.Header.ID, q.Q())
	}
	if err != nil {
		return nil, rtt, err
	}
	return resp, rtt, nil
}

// Exchange errors.
var (
	ErrTimeout     = errors.New("simnet: query timed out")
	ErrUnreachable = errors.New("simnet: no server at destination")
)

// DefaultTimeout is the simulated client timeout charged for lost queries.
const DefaultTimeout = 5 * time.Second

// node is one attached server.
type node struct {
	handler AppendHandler
	// down marks the server unresponsive (used for §4.4-style experiments
	// where child authoritatives are taken offline).
	down atomic.Bool
}

// flowKey identifies a directed (src, dst) traffic flow.
type flowKey struct {
	src, dst netip.Addr
}

// flow holds the per-(src,dst) random state. Sharding the RNG per flow means
// concurrent exchanges on different flows never contend, and — because each
// flow's stream is seeded purely from (network seed, src, dst) — the loss
// and latency draws a flow sees do not depend on what any other flow is
// doing or on the order flows were first used. That is what keeps parallel
// experiment sweeps byte-identical to serial ones.
//
// The stream is rand.NewSource(seedMix(seed, src, dst))'s, held here as a
// lazy source (see source.go): a campaign opens tens of thousands of flows
// and draws a handful of numbers from each, so a flow carries 16 bytes of
// generator state and pays per draw, not the stdlib's 5 KB register and
// 11 µs of seeding. The Rand is held by value, so a flow is one
// allocation.
type flow struct {
	mu  sync.Mutex
	src source
	rng rand.Rand // over &src
}

func newFlow(seed int64) *flow {
	f := new(flow)
	f.src.Seed(seed)
	f.rng = *rand.New(&f.src)
	return f
}

// Network is the in-memory message plane. Latency is decided per
// (src, dst) pair by the configured LatencyFor function; loss by the fault
// schedule.
type Network struct {
	seed int64

	mu    sync.RWMutex // guards nodes and flows maps
	nodes map[netip.Addr]*node
	flows map[flowKey]*flow

	// LatencyFor returns the RTT model for a src→dst exchange. If nil, a
	// constant 20 ms is used.
	LatencyFor func(src, dst netip.Addr) LatencyModel
	// Clock positions exchanges in time for the fault schedule. Nil means
	// faults are evaluated at Epoch (plus any per-exchange offset).
	Clock Clock
	// Faults, when non-nil, scripts per-server fault windows —
	// outages, loss bursts, latency spikes, SERVFAIL storms, truncation,
	// flapping — evaluated against Clock. The schedule must not be mutated
	// while exchanges run.
	Faults *FaultSchedule
	// Tap, when non-nil, observes every exchange — the simulation's
	// packet capture, standing in for the paper's pcap analyses (§4.4).
	// It runs outside the network lock; keep it cheap.
	Tap func(TapEvent)

	// counters
	queries atomic.Uint64
	losses  atomic.Uint64
}

// TapEvent describes one observed exchange. Query and Response are views of
// the client's buffers, valid only during the Tap call: copy what you keep.
type TapEvent struct {
	Src, Dst netip.Addr
	Query    []byte
	Response []byte // nil on loss/timeout
	RTT      time.Duration
	Err      error
}

// NewNetwork creates a network with deterministic randomness derived from
// seed. Random draws are sharded per (src, dst) flow; see flow.
func NewNetwork(seed int64) *Network {
	return &Network{
		seed:  seed,
		nodes: make(map[netip.Addr]*node),
		flows: make(map[flowKey]*flow),
	}
}

// seedMix runs FNV-1a over seed's 8 bytes (least significant first) and
// then each address's 16-byte form: the one mix behind flow RNG seeds and
// flap phases. Depending only on (seed, addresses) — never on discovery
// order — is load-bearing for determinism under concurrency.
func seedMix(seed int64, addrs ...netip.Addr) uint64 {
	h := uint64(14695981039346656037)
	step := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for i := 0; i < 8; i++ {
		step(byte(uint64(seed) >> (8 * i)))
	}
	for _, a := range addrs {
		for _, b := range a.As16() {
			step(b)
		}
	}
	return h
}

// flowFor returns the flow state for (src, dst), creating it on first use.
func (n *Network) flowFor(src, dst netip.Addr) *flow {
	k := flowKey{src: src, dst: dst}
	n.mu.RLock()
	f := n.flows[k]
	n.mu.RUnlock()
	if f != nil {
		return f
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if f = n.flows[k]; f == nil {
		f = newFlow(int64(seedMix(n.seed, k.src, k.dst)))
		n.flows[k] = f
	}
	return f
}

// Attach registers handler as the server listening at addr, replacing any
// previous server there.
func (n *Network) Attach(addr netip.Addr, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[addr] = &node{handler: AsAppendHandler(h)}
}

// Detach removes the server at addr.
func (n *Network) Detach(addr netip.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, addr)
}

// SetDown marks the server at addr unresponsive (true) or responsive
// (false) without detaching it; queries to a down server time out.
func (n *Network) SetDown(addr netip.Addr, down bool) error {
	n.mu.RLock()
	nd := n.nodes[addr]
	n.mu.RUnlock()
	if nd == nil {
		return fmt.Errorf("simnet: SetDown(%s): %w", addr, ErrUnreachable)
	}
	nd.down.Store(down)
	return nil
}

// Exchange delivers query to the server at dst and returns its response.
// The returned RTT is sampled from the link's latency model; lost or
// unanswered queries return ErrTimeout and cost the full timeout.
func (n *Network) Exchange(src, dst netip.Addr, query []byte) ([]byte, time.Duration, error) {
	return n.AppendExchange(nil, src, dst, query, 0)
}

// AppendExchange implements AppendExchanger: the server's reply is appended
// to buf by its AppendHandler (a plain Handler's is copied there), with the
// fault schedule evaluated at Clock.Now()+offset. With no schedule installed
// the offset is irrelevant.
func (n *Network) AppendExchange(buf []byte, src, dst netip.Addr, query []byte, offset time.Duration) ([]byte, time.Duration, error) {
	out, rtt, err := n.exchange(buf, src, dst, query, offset)
	if tap := n.Tap; tap != nil {
		var resp []byte
		if err == nil {
			resp = out[len(buf):]
		}
		tap(TapEvent{Src: src, Dst: dst, Query: query, Response: resp, RTT: rtt, Err: err})
	}
	return out, rtt, err
}

// faultTime is the instant the fault schedule sees for an exchange.
func (n *Network) faultTime(offset time.Duration) time.Time {
	if n.Clock != nil {
		return n.Clock.Now().Add(offset)
	}
	return Epoch.Add(offset)
}

func (n *Network) exchange(buf []byte, src, dst netip.Addr, query []byte, offset time.Duration) ([]byte, time.Duration, error) {
	n.mu.RLock()
	nd := n.nodes[dst]
	n.mu.RUnlock()
	var (
		lost bool
		rtt  time.Duration
	)
	n.queries.Add(1)

	// Scripted faults compose over the link's latency: the schedule is
	// immutable and the clock read is cheap, so this adds no contention to
	// concurrent exchanges on different flows.
	var eff FaultEffects
	if n.Faults != nil {
		eff = n.Faults.EffectsAt(dst, n.faultTime(offset))
	}

	// Sample loss and latency from the flow's private stream. The stream is
	// consumed exactly as the single-RNG implementation did: a loss draw
	// only when loss probability is positive, a latency draw only for
	// delivered queries.
	needLoss := eff.LossP > 0
	deliverable := nd != nil && !nd.down.Load() && !eff.Down
	if needLoss || deliverable {
		f := n.flowFor(src, dst)
		f.mu.Lock()
		if needLoss && f.rng.Float64() < eff.LossP {
			lost = true
			n.losses.Add(1)
		}
		if !lost && deliverable {
			model := LatencyModel(Constant(20 * time.Millisecond))
			if n.LatencyFor != nil {
				if m := n.LatencyFor(src, dst); m != nil {
					model = m
				}
			}
			rtt = model.Sample(&f.rng)
		}
		f.mu.Unlock()
	}
	if eff.Factor > 0 && rtt > 0 {
		// Past the timeout the exchange is lost anyway; capping there keeps
		// a product of large factors from overflowing the Duration.
		rtt = time.Duration(min(float64(rtt)*eff.Factor, float64(DefaultTimeout+1)))
	}

	if nd == nil {
		return buf, DefaultTimeout, ErrUnreachable
	}
	if lost || !deliverable {
		return buf, DefaultTimeout, ErrTimeout
	}
	var out []byte
	switch {
	case eff.ServFail:
		out = appendSynthReply(buf, query, true, false)
	case eff.Truncate:
		out = appendSynthReply(buf, query, false, true)
	default:
		out = nd.handler.AppendServeDNS(buf, query, src)
	}
	if len(out) == len(buf) || rtt > DefaultTimeout {
		return buf, DefaultTimeout, ErrTimeout
	}
	return out, rtt, nil
}

// appendSynthReply appends a fault reply fabricated from the query's own
// wire bytes: the header and question come back verbatim with QR set, plus
// SERVFAIL or an empty TC=1 body. Working at the byte level keeps fault
// injection independent of the codec and allocation-cheap.
func appendSynthReply(buf, query []byte, servfail, truncate bool) []byte {
	if len(query) < 12 {
		return buf
	}
	out := append(buf, query...)
	resp := out[len(buf):]
	resp[2] |= 0x80 // QR
	if truncate {
		resp[2] |= 0x02 // TC
		// Drop answer/authority counts (queries carry none anyway) so the
		// reply is an empty truncated shell.
		resp[6], resp[7], resp[8], resp[9] = 0, 0, 0, 0
	}
	if servfail {
		resp[3] = (resp[3] &^ 0x0F) | 0x02 // RCODE = SERVFAIL
	}
	return out
}

// Stats returns the number of exchanges attempted and the number lost.
func (n *Network) Stats() (queries, losses uint64) {
	return n.queries.Load(), n.losses.Load()
}
