package dnsttl

import (
	"net"
	"net/netip"
	"time"

	"dnsttl/internal/push"
)

// PushAuthority is the authoritative half of the push-based invalidation
// plane: it versions zones into change feeds, fans NOTIFYs out to
// subscribers on every committed mutation, and serves the IXFR pulls those
// NOTIFYs trigger. Obtain one with Server.EnablePush.
type PushAuthority = push.Authority

// PushSubscriber is the resolver half: it subscribes to zone change feeds,
// turns NOTIFYs into targeted cache purges (optionally purge+prefetch),
// falls back to SOA polling when the push channel goes quiet, and vetoes
// serve-stale for names it knows to be superseded. Obtain one with
// RecursiveServer.EnablePush, then call Subscribe per zone and drive it
// with Tick.
type PushSubscriber = push.Subscriber

// EnablePush publishes the given zones' change feeds through this server:
// mutating them (Add, Remove, Replace, SetTTL) bumps the zone serial,
// appends an IXFR-style delta to the feed history, and NOTIFYs every
// subscriber over UDP. Subscription requests and IXFR pulls arrive through
// the server's normal listeners. Call before mutating the zones.
func (s *Server) EnablePush(zones ...*Zone) (*PushAuthority, error) {
	a := push.NewAuthority()
	a.Send = sendNotifyUDP
	for _, z := range zones {
		f, err := push.NewFeed(z, 0)
		if err != nil {
			return nil, err
		}
		a.AddFeed(f)
	}
	s.s.Push = a
	return a, nil
}

// sendNotifyUDP fires one notify datagram and returns without waiting for
// the ack: RFC 1996's retry discipline is deliberately left to the
// subscriber's polling fallback, which bounds staleness even when every
// notify is lost.
func sendNotifyUDP(dst netip.AddrPort, wire []byte) error {
	c, err := net.Dial("udp", dst.String())
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Write(wire)
	return err
}

// PushConfig configures RecursiveServer.EnablePush.
type PushConfig struct {
	// Port is the notify-back UDP port advertised when subscribing: the
	// port of the daemon's UDP listener, whose NOTIFY-opcode datagrams are
	// routed to the subscriber.
	Port uint16
	// Net carries the subscriber's exchanges; nil means the client's own
	// net (ClientConfig.Net).
	Net Exchanger
	// PollEvery is the SOA polling fallback period (the staleness bound
	// accepted when the push channel drops every notify); 0 means 5 m. A
	// subscription silent for 2×PollEvery is unhealthy, and serve-stale is
	// vetoed for the names it covers.
	PollEvery time.Duration
	// Prefetch re-resolves purged names immediately, so the next client
	// query after an update is already a cache hit.
	Prefetch bool
	// Registry, when non-nil, exports the push.* counters (one subscriber
	// per registry: the names carry no subscriber label).
	Registry *Registry
	// QueryLog, when non-nil, captures one notify-in record per NOTIFY.
	QueryLog *QueryLogTap
}

// EnablePush attaches a push subscriber to the daemon: NOTIFY-opcode
// datagrams arriving at any listener are routed to it, its purges apply to
// the client's cache(s) fleet-wide, and the client's serve-stale decisions
// consult its subscription health. Call Subscribe on the returned
// subscriber per upstream zone, and Tick it periodically (resubscribes and
// the polling fallback come due there).
func (rs *RecursiveServer) EnablePush(cfg PushConfig) *PushSubscriber {
	pnet := cfg.Net
	if pnet == nil {
		pnet = rs.Client.net
	}
	pcfg := push.Config{
		Addr:      netip.MustParseAddr("127.0.0.1"),
		Port:      cfg.Port,
		Net:       pnet,
		Clock:     rs.Client.clock,
		Stores:    rs.Client.f.Stores(),
		PollEvery: cfg.PollEvery,
		QLog:      cfg.QueryLog,
		Registry:  cfg.Registry,
	}
	if cfg.Prefetch {
		pcfg.Refetch = func(name Name, qtype Type) {
			_, _ = rs.Client.Lookup(name, qtype)
		}
	}
	sub := push.NewSubscriber(pcfg)
	rs.Client.f.SetStaleGate(sub)
	rs.push.Store(sub)
	return sub
}
