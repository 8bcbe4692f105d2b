package transport

import (
	"net"
	"net/netip"
	"sync"
	"time"
)

// pool keeps up to PoolSize live pipelined connections per upstream. A free
// (zero in-flight) connection is always reused; when every connection is
// busy the pool dials new ones until the cap, then piles onto the
// least-loaded connection — pipelining absorbs the overflow.
type pool struct {
	cfg  Config
	m    *Metrics
	dial func(server netip.AddrPort) (net.Conn, error)

	mu      sync.Mutex
	conns   map[netip.AddrPort][]*pipeConn
	dialing map[netip.AddrPort]int
	closed  bool
}

func newPool(cfg Config, dial func(netip.AddrPort) (net.Conn, error)) *pool {
	return &pool{
		cfg:     cfg,
		m:       cfg.Metrics,
		dial:    dial,
		conns:   make(map[netip.AddrPort][]*pipeConn),
		dialing: make(map[netip.AddrPort]int),
	}
}

// get returns a connection to server. With reuse it hands out a pooled one
// when the pool has a usable one; otherwise — and always without reuse, the
// reused-connection retry path — it dials and registers a new one. fresh
// reports a dial.
func (p *pool) get(server netip.AddrPort, reuse bool) (pc *pipeConn, fresh bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, errConnClosed
	}
	if reuse {
		// Prune dead and idle-expired connections, keep the rest.
		list := p.conns[server][:0]
		var best *pipeConn
		for _, c := range p.conns[server] {
			if !c.alive() {
				c.close()
				continue
			}
			list = append(list, c)
			if best == nil || c.load() < best.load() {
				best = c
			}
		}
		p.conns[server] = list
		atCap := len(list)+p.dialing[server] >= p.cfg.PoolSize
		if best != nil && (best.load() == 0 || atCap) {
			p.mu.Unlock()
			p.m.Reuses.Inc()
			return best, false, nil
		}
	}
	p.dialing[server]++
	p.mu.Unlock()

	c, err := p.dial(server)

	p.mu.Lock()
	p.dialing[server]--
	if err != nil {
		p.mu.Unlock()
		p.m.DialErrors.Inc()
		return nil, false, err
	}
	p.m.Dials.Inc()
	if p.closed {
		p.mu.Unlock()
		_ = c.Close()
		return nil, false, errConnClosed
	}
	pc = newPipeConn(c, p.cfg)
	p.conns[server] = append(p.conns[server], pc)
	p.mu.Unlock()
	return pc, true, nil
}

// exchange runs one query through a pooled connection. When a reused
// connection fails with a connection-level error (the server closed it
// between queries, or reset it mid-flight), the exchange is retried once on
// a freshly dialed connection — timeouts are not retried, that is the
// retry plane's job.
func (p *pool) exchange(server netip.AddrPort, query []byte) ([]byte, time.Duration, error) {
	pc, fresh, err := p.get(server, true)
	if err != nil {
		return nil, 0, err
	}
	resp, rtt, err := pc.exchange(query)
	if err == nil || fresh || err == ErrTimeout {
		return resp, rtt, err
	}
	pc, _, derr := p.get(server, false)
	if derr != nil {
		return nil, rtt, err
	}
	resp, rtt2, err := pc.exchange(query)
	return resp, rtt + rtt2, err
}

// close tears down every pooled connection.
func (p *pool) close() error {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = make(map[netip.AddrPort][]*pipeConn)
	p.mu.Unlock()
	for _, list := range conns {
		for _, c := range list {
			c.close()
		}
	}
	return nil
}
