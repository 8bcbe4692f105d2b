package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	wl "dnsttl/internal/workload"
)

const (
	// queryTimeout is how long a client waits for a reply before the query
	// counts as failed.
	queryTimeout = 2 * time.Second
	// genClients is the number of generator goroutines and sockets; the
	// reference box has two cores, and a third client would take CPU from
	// the servers under test.
	genClients = 2
	// zipfExponent is the popularity skew of the hit and mix streams.
	zipfExponent = 1.1
	// streamLen is how many draws a Zipf stream holds; a run that issues
	// more wraps around.
	streamLen = 1 << 21
	// walkStride spreads the distinct-name walk over the zone; it is prime
	// and divides no zone size used here, so the walk visits every name
	// once before it repeats.
	walkStride = 100003
)

// zipfStream draws n name indices from Zipf(zipfExponent) over names,
// index 0 the most popular. The stream is a function of the seed alone.
func zipfStream(seed int64, names, n int) []uint32 {
	weights := make([]float64, names)
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), zipfExponent)
	}
	alias := wl.NewAlias(weights)
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(alias.Draw(rng.Float64()))
	}
	return out
}

// generator is the closed-loop load generator: genClients goroutines, each
// with one connected UDP socket, each sending its next query only after the
// previous reply was validated. Queries are a template wire patched in
// place and latencies go to a preallocated slice, so the generator itself
// allocates nothing per query.
type generator struct {
	w      *workload
	stream []uint32 // Zipf workloads: name index by sequence number
	offset int      // distinct-name walk: index of sequence number 0
	// issued counts queries sent, warm-up included. It hands out sequence
	// numbers and drives the ttl_mix_udp clock.
	issued  *atomic.Int64
	clients []*client
	tr      *tracer

	// base is issued at the start of the timed section; sequence numbers
	// are relative to it.
	base int64
	// onWindow runs once, on the client goroutine that completes the last
	// query of the fixed-count window.
	onWindow func(now time.Time)
}

type client struct {
	conn  *net.UDPConn
	query []byte
	buf   []byte
	lat   []int64 // exact latency of every validated reply, ns
	// ok is read by the rate sampler while the client runs.
	ok        atomic.Int64
	attempted int64
	fails     [numVerdicts]int64
	// failedIDs remembers the IDs of this client's recent failed queries,
	// so a reply that arrives after its query timed out is dropped instead
	// of failing the next query too.
	failedIDs [8]uint16
	nFailed   int
	_         [64]byte // keep the next client's counters off this cache line
}

func newGenerator(w *workload, seed int64, issued *atomic.Int64, resolver netip.AddrPort, tr *tracer) (*generator, error) {
	g := &generator{w: w, issued: issued, tr: tr}
	if w.zipf {
		g.stream = zipfStream(seed, w.names, streamLen)
	} else {
		g.offset = rand.New(rand.NewSource(seed)).Intn(w.names)
	}
	tmpl, err := queryTemplate()
	if err != nil {
		return nil, err
	}
	for i := 0; i < genClients; i++ {
		conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(resolver))
		if err != nil {
			g.Close()
			return nil, err
		}
		g.clients = append(g.clients, &client{
			conn:  conn,
			query: append([]byte(nil), tmpl...),
			buf:   make([]byte, 4096),
			lat:   make([]int64, 0, w.latencyCap/genClients),
		})
	}
	return g, nil
}

func (g *generator) Close() {
	for _, c := range g.clients {
		c.conn.Close()
	}
}

// index maps a sequence number of the timed section to a name index.
func (g *generator) index(seq int64) int {
	if g.stream != nil {
		return int(g.stream[seq%int64(len(g.stream))])
	}
	return int((int64(g.offset) + seq*walkStride) % int64(g.w.names))
}

// exchange sends one query for name idx and validates the reply. id is the
// low 16 bits of the query's sequence number.
func (c *client) exchange(id uint16, idx int, maxTTL uint32) (verdict, time.Time, time.Time) {
	patchQuery(c.query, id, idx)
	t0 := time.Now()
	c.attempted++
	_ = c.conn.SetReadDeadline(t0.Add(queryTimeout))
	if _, err := c.conn.Write(c.query); err != nil {
		return c.fail(vTimeout, id), t0, time.Now()
	}
	for {
		n, err := c.conn.Read(c.buf)
		t1 := time.Now()
		if err != nil {
			return c.fail(vTimeout, id), t0, t1
		}
		if n >= 2 && c.isLate(binary.BigEndian.Uint16(c.buf)) {
			continue
		}
		if v := checkReply(c.buf[:n], c.query, idx, maxTTL); v != vOK {
			return c.fail(v, id), t0, t1
		}
		c.lat = append(c.lat, int64(t1.Sub(t0)))
		c.ok.Add(1)
		return vOK, t0, t1
	}
}

func (c *client) fail(v verdict, id uint16) verdict {
	c.fails[v]++
	c.failedIDs[c.nFailed%len(c.failedIDs)] = id
	c.nFailed++
	return v
}

func (c *client) isLate(id uint16) bool {
	for i := 0; i < c.nFailed && i < len(c.failedIDs); i++ {
		if c.failedIDs[i] == id {
			return true
		}
	}
	return false
}

// warm sends one query for each listed name through the first client,
// untimed, and fails if any reply does not validate.
func (g *generator) warm(indices []int) error {
	c := g.clients[0]
	for _, idx := range indices {
		seq := g.issued.Add(1) - 1
		if v, _, _ := c.exchange(uint16(seq), idx, g.w.ttlFor(idx)); v != vOK {
			return fmt.Errorf("warm-up query for name %d: %s", idx, verdictNames[v])
		}
	}
	c.lat = c.lat[:0]
	c.ok.Store(0)
	c.attempted = 0
	return nil
}

// run drives all clients from start until `seconds` have passed and at
// least floor queries were issued, or until limit queries were issued
// (limit 0 means no limit). It returns the instant the last client stopped.
func (g *generator) run(start time.Time, seconds time.Duration, floor, limit int64) time.Time {
	g.base = g.issued.Load()
	var wg sync.WaitGroup
	deadline := start.Add(seconds)
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				seq := g.issued.Add(1) - 1 - g.base
				if limit > 0 && seq >= limit {
					return
				}
				if seq >= floor && time.Now().After(deadline) {
					return
				}
				idx := g.index(seq)
				v, t0, t1 := c.exchange(uint16(seq), idx, g.w.ttlFor(idx))
				if g.tr != nil && v == vOK {
					g.tr.record(spanQuery, uint32(seq), t0, t1)
				}
				if seq == floor-1 && g.onWindow != nil {
					g.onWindow(t1)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Now()
}

// totals sums the clients' counters after a run.
func (g *generator) totals() (attempted, ok int64, fails [numVerdicts]int64, lat []int64) {
	n := 0
	for _, c := range g.clients {
		n += len(c.lat)
	}
	lat = make([]int64, 0, n)
	for _, c := range g.clients {
		attempted += c.attempted
		ok += c.ok.Load()
		for v, k := range c.fails {
			fails[v] += k
		}
		lat = append(lat, c.lat...)
	}
	return attempted, ok, fails, lat
}

// okCount is the number of validated replies so far; safe while running.
func (g *generator) okCount() int64 {
	var n int64
	for _, c := range g.clients {
		n += c.ok.Load()
	}
	return n
}
