package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Exchange errors.
var (
	// ErrTimeout reports an exchange that saw no response in time.
	ErrTimeout = errors.New("transport: exchange timed out")
	// errConnClosed reports an exchange attempted or in flight on a
	// connection that died.
	errConnClosed = errors.New("transport: connection closed")
)

// pipeResult is one demultiplexed response (or the connection's fate).
type pipeResult struct {
	wire []byte
	err  error
}

// pipeConn is one persistent stream connection (TCP or TLS) multiplexing
// many concurrent queries, RFC 7766 §6.2.1.1 style: queries are written
// back to back with connection-local message IDs, and a single reader
// goroutine matches responses — which may arrive in any order — back to
// their waiters by ID. The caller's original ID is restored before the
// response is handed back, so pipelining is invisible above the transport.
type pipeConn struct {
	c   net.Conn
	cfg Config
	m   *Metrics

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint16]chan pipeResult
	nextID  uint16
	dead    bool
	err     error
	lastUse time.Time // completion time of the last exchange, for idle reap
}

// frameBufPool recycles the [length prefix + query] write buffers.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// newPipeConn wraps an established connection and starts its reader.
func newPipeConn(c net.Conn, cfg Config) *pipeConn {
	p := &pipeConn{
		c:       c,
		cfg:     cfg,
		m:       cfg.Metrics,
		pending: make(map[uint16]chan pipeResult),
		lastUse: time.Now(),
	}
	go p.readLoop()
	return p
}

// load reports in-flight exchanges (the pool's least-loaded pick).
func (p *pipeConn) load() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// alive reports whether the connection can still carry queries, treating a
// connection idle past idleTimeout as dead.
func (p *pipeConn) alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return false
	}
	if len(p.pending) == 0 && time.Since(p.lastUse) > idleTimeout {
		return false
	}
	return true
}

// exchange sends one query and waits for its response. The query's message
// ID is rewritten to a connection-local one on the wire and restored in the
// response; the caller's buffer is copied, never retained or mutated.
func (p *pipeConn) exchange(query []byte) ([]byte, time.Duration, error) {
	if len(query) < 12 {
		return nil, 0, fmt.Errorf("transport: query shorter than a DNS header")
	}
	if len(query) > 0xFFFF {
		return nil, 0, fmt.Errorf("transport: query exceeds the TCP frame limit")
	}
	ch := make(chan pipeResult, 1)
	p.mu.Lock()
	if p.dead {
		err := p.err
		p.mu.Unlock()
		if err == nil {
			err = errConnClosed
		}
		return nil, 0, err
	}
	id := p.nextID
	for {
		id++
		if _, busy := p.pending[id]; !busy {
			break
		}
	}
	p.nextID = id
	p.pending[id] = ch
	p.mu.Unlock()

	bufp := frameBufPool.Get().(*[]byte)
	frame := append((*bufp)[:0], 0, 0)
	frame = append(frame, query...)
	binary.BigEndian.PutUint16(frame, uint16(len(query)))
	frame[2], frame[3] = byte(id>>8), byte(id)

	start := time.Now()
	p.wmu.Lock()
	_ = p.c.SetWriteDeadline(start.Add(p.cfg.Timeout))
	_, werr := p.c.Write(frame)
	p.wmu.Unlock()
	*bufp = frame[:0]
	frameBufPool.Put(bufp)
	if werr != nil {
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		p.fail(werr)
		return nil, time.Since(start), werr
	}

	timer := time.NewTimer(p.cfg.Timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		rtt := time.Since(start)
		p.mu.Lock()
		p.lastUse = time.Now()
		p.mu.Unlock()
		if r.err != nil {
			return nil, rtt, r.err
		}
		r.wire[0], r.wire[1] = query[0], query[1]
		return r.wire, rtt, nil
	case <-timer.C:
		p.mu.Lock()
		delete(p.pending, id)
		p.lastUse = time.Now()
		p.mu.Unlock()
		return nil, time.Since(start), ErrTimeout
	}
}

// readLoop demultiplexes length-framed responses to their waiters until the
// connection dies or sits idle past idleTimeout with nothing in flight.
func (p *pipeConn) readLoop() {
	br := bufio.NewReaderSize(p.c, 4096)
	var hdr [2]byte
	for {
		// The read deadline serves two masters: reaping idle connections
		// (nothing pending) and bounding reads when queries are in flight.
		// Waiters carry their own timers, so the in-flight bound only has
		// to be no tighter than theirs.
		wait := idleTimeout
		if inflight := p.load(); inflight > 0 && p.cfg.Timeout+time.Second > wait {
			wait = p.cfg.Timeout + time.Second
		}
		_ = p.c.SetReadDeadline(time.Now().Add(wait))
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && p.load() == 0 {
				err = errConnClosed // quiet idle reap
			}
			p.fail(err)
			return
		}
		n := binary.BigEndian.Uint16(hdr[:])
		if n < 12 {
			p.fail(fmt.Errorf("transport: short response frame (%d bytes)", n))
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			p.fail(err)
			return
		}
		id := uint16(buf[0])<<8 | uint16(buf[1])
		p.mu.Lock()
		ch, ok := p.pending[id]
		delete(p.pending, id)
		p.mu.Unlock()
		if !ok {
			// Unknown ID: a late answer to a timed-out query, or a server
			// responding with an ID we never sent. Either way: drop.
			p.m.IDMismatches.Inc()
			continue
		}
		ch <- pipeResult{wire: buf}
	}
}

// fail marks the connection dead, closes it, and hands err to every waiter.
func (p *pipeConn) fail(err error) {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	p.err = err
	waiters := p.pending
	p.pending = make(map[uint16]chan pipeResult)
	p.mu.Unlock()
	_ = p.c.Close()
	for _, ch := range waiters {
		ch <- pipeResult{err: err}
	}
}

// close tears the connection down (pool shutdown).
func (p *pipeConn) close() { p.fail(errConnClosed) }
