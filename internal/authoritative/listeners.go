package authoritative

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// DrainTimeout bounds how long Close waits for the queries in service. It
// is what one upstream exchange may take by default, so a recursive query
// already waiting on a dead authoritative gets its SERVFAIL out. Past it
// the sockets are closed under whatever is still running and Close says so.
const DrainTimeout = 5 * time.Second

// listener is a transport the drain ladder can stop.
type listener interface {
	Listen(addr string) (netip.AddrPort, error)
	// shutdown is the ladder on one transport, in this order: stop taking
	// new queries and wake the idle readers; wait, until ctx ends, for each
	// query in service to have its reply written; release the sockets,
	// cutting whatever is left. It is a no-op on a listener that is closed
	// or never listened.
	shutdown(ctx context.Context) error
}

// drain is what every Close runs — a listener's own or a set's — so that
// Close means the same thing on every transport: stop accepting, let each
// query already in service finish and its reply leave, wake idle
// connections instead of waiting for them, give up after DrainTimeout. All
// of ls drain at once against the one bound; nil means a clean drain.
func drain(ls ...listener) error {
	ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
	defer cancel()
	errs := make([]error, len(ls))
	var wg sync.WaitGroup
	for i, l := range ls {
		wg.Add(1)
		go func(i int, l listener) {
			defer wg.Done()
			if err := l.shutdown(ctx); err != nil {
				errs[i] = fmt.Errorf("authoritative: closing %T: %w", l, err)
			}
		}(i, l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// inService waits for queries, the queries in service, or for ctx to end.
func inService(ctx context.Context, queries *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		queries.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("queries still in service after %v", DrainTimeout)
	}
}

// Listeners is the set of sockets one daemon serves on: any number of UDP,
// TCP, DoT and DoH listeners, each serving one handler, closed together by
// one Close. The zero value is an empty set.
type Listeners struct {
	mu   sync.Mutex
	open []listener
}

// UDP binds addr ("127.0.0.1:0" style) and serves h on it until Close,
// returning the bound address. A non-nil reg exposes the listener.udp.*
// gauges.
func (ls *Listeners) UDP(addr string, h simnet.Handler, reg *obs.Registry) (netip.AddrPort, error) {
	return ls.listen(&UDPServer{Handler: h, Registry: reg}, addr)
}

// TCP binds addr and serves h over two-byte length framing until Close:
// plain TCP when cfg is nil, DNS over TLS otherwise. A non-nil reg exposes
// the listener.tcp.* (listener.dot.*) counters.
func (ls *Listeners) TCP(addr string, h simnet.Handler, cfg *tls.Config, reg *obs.Registry) (netip.AddrPort, error) {
	return ls.listen(&TCPServer{Handler: h, TLS: cfg, Registry: reg}, addr)
}

// DoH binds addr and serves h as DNS over HTTPS until Close (plain HTTP
// when cfg is nil).
func (ls *Listeners) DoH(addr string, h simnet.Handler, cfg *tls.Config) (netip.AddrPort, error) {
	return ls.listen(&DoHServer{Handler: h, TLS: cfg}, addr)
}

func (ls *Listeners) listen(l listener, addr string) (netip.AddrPort, error) {
	bound, err := l.Listen(addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	ls.mu.Lock()
	ls.open = append(ls.open, l)
	ls.mu.Unlock()
	return bound, nil
}

// Close drains every listener of the set (see drain) and empties it.
func (ls *Listeners) Close() error {
	ls.mu.Lock()
	open := ls.open
	ls.open = nil
	ls.mu.Unlock()
	return drain(open...)
}
