package main

import (
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"dnsttl"
	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

// queryClock is the ttl_mix_udp resolver clock: it advances one millisecond
// per issued query, so TTL decay is a function of the query stream and not
// of how fast the machine answers it.
type queryClock struct{ issued *atomic.Int64 }

func (c queryClock) Now() time.Time {
	return simnet.Epoch.Add(time.Duration(c.issued.Load()) * time.Millisecond)
}

// stack is one authoritative server and one recursive resolver listening on
// 127.0.0.1 (host loopback, not a real link), wired as cmd/authserver and
// cmd/resolverd wire them.
type stack struct {
	resolver    netip.AddrPort
	client      *dnsttl.Client
	authQueries func() uint64
	registry    *dnsttl.Registry // only in a traced stack
	closers     []func() error
}

func (s *stack) Close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

// newStack builds the servers for w. With tr == nil they are built through
// the facade exactly as the daemons build them. With a tracer the same
// pieces are assembled with three wrappers from this package: a handler
// around RecursiveServer.ServeDNS, an Exchanger around the TransportNet and
// a handler around the authoritative server.
func newStack(w *workload, issued *atomic.Int64, tr *tracer) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.Close())
		}
	}()
	root, leaf, err := buildZones(w.names+1, w.ttlFor)
	if err != nil {
		return nil, err
	}
	serverName := dnswire.NewName("a.root-servers.net.")
	var authAddr netip.AddrPort
	if tr == nil {
		srv := dnsttl.NewServer(serverName, nil)
		srv.AddZone(root)
		srv.AddZone(leaf)
		if authAddr, err = srv.ListenUDP("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("authoritative listen: %w", err)
		}
		s.closers = append(s.closers, srv.Close)
		s.authQueries = srv.QueryCount
	} else {
		srv := authoritative.NewServer(serverName, nil)
		srv.AddZone(root)
		srv.AddZone(leaf)
		u := &authoritative.UDPServer{Handler: tr.wrapAuthoritative(srv)}
		if authAddr, err = u.Listen("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("authoritative listen: %w", err)
		}
		s.closers = append(s.closers, u.Close)
		s.authQueries = srv.QueryCount
		s.registry = dnsttl.NewRegistry(nil)
	}

	upstream, err := dnsttl.NewTransportNet(dnsttl.TransportUDP, dnsttl.TransportOptions{
		Port: authAddr.Port(), Timeout: queryTimeout, Registry: s.registry,
	})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, upstream.Close)
	cfg := dnsttl.ClientConfig{
		Policy:        dnsttl.DefaultPolicy(),
		Roots:         []netip.Addr{authAddr.Addr()},
		Net:           upstream,
		CacheCapacity: w.cacheCapacity,
	}
	if w.cacheCapacity > 0 {
		cfg.Eviction = dnsttl.EvictLRU
	}
	if w.virtualClock {
		cfg.Clock = queryClock{issued}
	}
	if tr != nil {
		cfg.Net = tr.wrapExchanger(upstream)
	}
	if s.client, err = dnsttl.NewClient(cfg); err != nil {
		return nil, err
	}
	rs := &dnsttl.RecursiveServer{Client: s.client}
	if tr == nil {
		if s.resolver, err = rs.ListenUDP("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("resolver listen: %w", err)
		}
		s.closers = append(s.closers, rs.Close)
	} else {
		u := &authoritative.UDPServer{Handler: tr.wrapServe(simnet.HandlerFunc(rs.ServeDNS))}
		if s.resolver, err = u.Listen("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("resolver listen: %w", err)
		}
		s.closers = append(s.closers, u.Close)
	}
	return s, nil
}
