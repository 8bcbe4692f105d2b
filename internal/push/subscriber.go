package push

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/flight"
	"dnsttl/internal/obs"
	"dnsttl/internal/qlog"
	"dnsttl/internal/simnet"
)

// DefaultPollEvery is the SOA polling fallback period when Config leaves it
// zero: how stale a subscriber can get when the push channel silently drops
// every notify.
const DefaultPollEvery = 5 * time.Minute

// Config parameterizes a Subscriber.
type Config struct {
	// Addr is the subscriber's own address — the source of its subscribe,
	// poll, and IXFR exchanges, and (in simnet) where notifies arrive.
	Addr netip.Addr
	// Port is the notify-back UDP port advertised to authorities over real
	// sockets; 0 means the simnet convention (notify the source address).
	Port uint16
	// Net carries the subscriber's exchanges.
	Net simnet.Exchanger
	// Clock drives polling, health, and purge timestamps; nil means wall.
	Clock simnet.Clock
	// Stores are the caches purges apply to — one per farm frontend for
	// private topologies, a single shared store otherwise.
	Stores []cache.Store
	// Refetch, when non-nil, is called for every purged key (purge+prefetch
	// mode): re-resolve immediately so the next client query is fresh and
	// never charged the upstream round trip.
	Refetch func(name dnswire.Name, qtype dnswire.Type)
	// Registry, when non-nil, publishes the subscriber's push.* counters.
	Registry *obs.Registry
	// QLog, when non-nil, emits one notify-in record per NOTIFY received.
	QLog *qlog.Tap
	// PollEvery is the SOA polling fallback period; 0 means
	// DefaultPollEvery. Polling also resynchronizes the serial after missed
	// notifies, so it bounds the stale window under push-channel faults. A
	// subscription that has not heard from its authority (subscribe ack,
	// notify, or poll reply) for 2×PollEvery is unhealthy, and serve-stale
	// is vetoed for the names it covers.
	PollEvery time.Duration
}

// zoneSub is one zone subscription's state.
type zoneSub struct {
	origin     dnswire.Name
	server     netip.Addr
	serial     uint32
	subscribed bool
	lastSeen   time.Time
}

// Subscriber is the resolver half of the push plane: it subscribes to zone
// feeds, turns NOTIFYs into targeted cache purges (with optional immediate
// refetch), falls back to SOA polling when the push channel goes quiet, and
// implements resolver.StaleGate so purged or unvouched-for names are never
// served stale. It is also a simnet.Handler — attach it at its address to
// receive notifies on the simulated plane.
type Subscriber struct {
	cfg   Config
	clock simnet.Clock

	mu     sync.Mutex
	zones  map[dnswire.Name]*zoneSub
	purged map[cache.Key]time.Time

	// inFlight holds each zone's one poll or pull in progress.
	inFlight flight.Group[dnswire.Name, struct{}]

	msgID atomic.Uint32
	m     metrics
}

// NewSubscriber builds a subscriber; call Subscribe per zone, then drive it
// with Tick (and deliver notifies via ServeDNS or HandleNotifyWire).
func NewSubscriber(cfg Config) *Subscriber {
	if cfg.Clock == nil {
		cfg.Clock = simnet.WallClock{}
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = DefaultPollEvery
	}
	s := &Subscriber{
		cfg:    cfg,
		clock:  cfg.Clock,
		zones:  make(map[dnswire.Name]*zoneSub),
		purged: make(map[cache.Key]time.Time),
	}
	s.m.publish(cfg.Registry)
	return s
}

// Stats is a snapshot of the subscriber's counters.
type Stats struct {
	Notifies         uint64
	NotifyDups       uint64
	IXFR             uint64
	AXFRFallback     uint64
	Purged           uint64
	Refetches        uint64
	Subscribes       uint64
	SubscribeRetries uint64
	Polls            uint64
	PollRecoveries   uint64
	StaleDenied      uint64
}

// Stats snapshots the counters.
func (s *Subscriber) Stats() Stats {
	m := &s.m
	return Stats{
		Notifies:         m.notifies.Value(),
		NotifyDups:       m.notifyDups.Value(),
		IXFR:             m.ixfr.Value(),
		AXFRFallback:     m.axfrFallback.Value(),
		Purged:           m.purged.Value(),
		Refetches:        m.refetches.Value(),
		Subscribes:       m.subscribes.Value(),
		SubscribeRetries: m.subscribeRetries.Value(),
		Polls:            m.polls.Value(),
		PollRecoveries:   m.pollRecoveries.Value(),
		StaleDenied:      m.staleDenied.Value(),
	}
}

// PollEvery reports the effective SOA polling fallback period.
func (s *Subscriber) PollEvery() time.Duration { return s.cfg.PollEvery }

// Subscribe registers interest in origin served at server and attempts the
// subscription immediately; failures are retried on every Tick.
func (s *Subscriber) Subscribe(origin dnswire.Name, server netip.Addr) {
	s.mu.Lock()
	zs := s.zones[origin]
	if zs == nil {
		zs = &zoneSub{origin: origin, server: server}
		s.zones[origin] = zs
	} else {
		zs.server = server
	}
	s.mu.Unlock()
	s.trySubscribe(zs)
}

// healthyLocked reports whether zs has heard from its authority within the
// health window, two polling periods.
func (s *Subscriber) healthyLocked(zs *zoneSub, now time.Time) bool {
	return zs.subscribed && !zs.lastSeen.IsZero() &&
		now.Sub(zs.lastSeen) < 2*s.cfg.PollEvery
}

// Tick advances the subscription manager to now: unsubscribed zones retry
// their subscription, and zones that have not heard from
// their authority for PollEvery get an SOA poll — the fallback that bounds
// staleness when the push channel drops notifies. Zones are visited in
// sorted order so simulated runs are deterministic.
func (s *Subscriber) Tick(now time.Time) {
	s.mu.Lock()
	origins := make([]dnswire.Name, 0, len(s.zones))
	for o := range s.zones {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	subs := make([]*zoneSub, len(origins))
	for i, o := range origins {
		subs[i] = s.zones[o]
	}
	s.mu.Unlock()
	for _, zs := range subs {
		s.mu.Lock()
		needSub := !zs.subscribed
		needPoll := zs.subscribed && (zs.lastSeen.IsZero() || now.Sub(zs.lastSeen) >= s.cfg.PollEvery)
		s.mu.Unlock()
		if needSub {
			s.trySubscribe(zs)
		} else if needPoll {
			s.exclusive(zs, s.poll)
		}
	}
}

// trySubscribe sends one subscription request; on success it adopts the
// answered serial (pulling any changes missed while unsubscribed).
func (s *Subscriber) trySubscribe(zs *zoneSub) {
	req := &dnswire.Message{
		Header: dnswire.Header{
			ID:     uint16(s.msgID.Add(1)),
			Opcode: dnswire.OpcodeNotify,
		},
		Question: []dnswire.Question{{Name: zs.origin, Type: TypeIXFR, Class: dnswire.ClassIN}},
	}
	if s.cfg.Port != 0 {
		req.AddAdditional(dnswire.RR{
			Name: zs.origin, Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: uint32(s.cfg.Port), Data: dnswire.A{Addr: s.cfg.Addr},
		})
	}
	serial, ok := soaSerial(s.ask(zs, req))
	now := s.clock.Now()
	if !ok {
		s.m.subscribeRetries.Inc()
		return
	}
	s.mu.Lock()
	zs.subscribed = true
	zs.lastSeen = now
	prev := zs.serial
	firstContact := prev == 0
	if firstContact || serial <= prev {
		// First contact adopts the zone as-is; nothing cached under the
		// subscription predates it.
		zs.serial = serial
	}
	s.mu.Unlock()
	s.m.subscribes.Inc()
	if !firstContact && serial > prev {
		s.exclusive(zs, s.pull)
	}
}

// poll sends one SOA query; an advanced serial means notifies were lost and
// is recovered with a pull, a failed poll drops the subscription back into
// resubscribing. It runs through exclusive.
func (s *Subscriber) poll(zs *zoneSub) {
	s.m.polls.Inc()
	req := dnswire.NewIterativeQuery(uint16(s.msgID.Add(1)), zs.origin, dnswire.TypeSOA)
	serial, ok := soaSerial(s.ask(zs, req))
	now := s.clock.Now()
	if !ok {
		s.mu.Lock()
		zs.subscribed = false
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	zs.lastSeen = now
	behind := serial > zs.serial
	s.mu.Unlock()
	if behind {
		s.m.pollRecoveries.Inc()
		s.pull(zs)
	}
}

// exclusive runs fn on zs unless a poll or pull of zs's zone is already in
// flight: one pull per zone at a time, and the one in flight lands at the
// latest serial it is told of (or the next poll catches up).
func (s *Subscriber) exclusive(zs *zoneSub, fn func(*zoneSub)) {
	s.inFlight.TryDo(zs.origin, func() (struct{}, error) {
		fn(zs)
		return struct{}{}, nil
	})
}

// ask sends req to zs's server and returns the answer section of a NOERROR
// reply that answers it, nil when there is none.
func (s *Subscriber) ask(zs *zoneSub, req *dnswire.Message) []dnswire.RR {
	resp, _, err := simnet.Ask(s.cfg.Net, s.cfg.Addr, zs.server, req)
	if err != nil || resp.Header.RCode != dnswire.RCodeNoError {
		return nil
	}
	return resp.Answer
}

// soaSerial returns the serial of the first SOA in ans.
func soaSerial(ans []dnswire.RR) (uint32, bool) {
	for _, rr := range ans {
		if soa, ok := rr.Data.(dnswire.SOA); ok {
			return soa.Serial, true
		}
	}
	return 0, false
}

// ServeDNS implements simnet.Handler: NOTIFYs arriving at the subscriber's
// address are acknowledged (RFC 1996 §4.7) and drive a pull; anything else
// is refused.
func (s *Subscriber) ServeDNS(wire []byte, from netip.Addr) []byte {
	return s.HandleNotifyWire(wire, from)
}

// HandleNotifyWire decodes one datagram, handles it if it is a NOTIFY, and
// returns the ack wire (nil for non-NOTIFY traffic). RecursiveServer routes
// NOTIFY-opcode datagrams here when push is enabled.
func (s *Subscriber) HandleNotifyWire(wire []byte, from netip.Addr) []byte {
	q, err := dnswire.Decode(wire)
	if err != nil {
		return nil
	}
	if q.Header.Opcode != dnswire.OpcodeNotify || q.Header.QR {
		return nil
	}
	s.handleNotify(q, from)
	ack := q.Reply()
	ack.Header.AA = true
	out, err := dnswire.Encode(ack)
	if err != nil {
		return nil
	}
	return out
}

// handleNotify books one NOTIFY: a new serial triggers a pull, an
// already-seen serial is acknowledged without purging (at-most-once purge
// per serial under duplicated or reordered notifies).
func (s *Subscriber) handleNotify(q *dnswire.Message, from netip.Addr) {
	origin := q.Q().Name
	serial, _ := soaSerial(q.Answer)
	s.m.notifies.Inc()
	if t := s.cfg.QLog; t != nil {
		t.NotifyIn(from, origin, serial)
	}
	s.mu.Lock()
	zs := s.zones[origin]
	if zs == nil {
		s.mu.Unlock()
		return
	}
	zs.lastSeen = s.clock.Now()
	if serial != 0 && serial <= zs.serial {
		s.mu.Unlock()
		s.m.notifyDups.Inc()
		return
	}
	s.mu.Unlock()
	s.exclusive(zs, s.pull)
}

// pull performs one IXFR exchange and applies the result to the stores. It
// runs through exclusive.
func (s *Subscriber) pull(zs *zoneSub) {
	s.mu.Lock()
	fromSerial := zs.serial
	s.mu.Unlock()

	req := dnswire.NewIterativeQuery(uint16(s.msgID.Add(1)), zs.origin, TypeIXFR)
	req.AddAuthority(dnswire.RR{
		Name: zs.origin, Type: dnswire.TypeSOA, Class: dnswire.ClassIN,
		Data: dnswire.SOA{MName: zs.origin, RName: zs.origin, Serial: fromSerial},
	})
	cur, changes, full, upToDate, err := parseIXFR(s.ask(zs, req))
	if err != nil {
		return
	}
	now := s.clock.Now()
	switch {
	case upToDate || cur <= fromSerial:
		// Nothing to apply.
	case full != nil:
		s.m.axfrFallback.Inc()
		s.applyFull(zs.origin, now)
	default:
		s.m.ixfr.Inc()
		s.applyChanges(zs.origin, changes, now)
	}
	s.mu.Lock()
	if cur > zs.serial {
		zs.serial = cur
	}
	zs.lastSeen = now
	s.mu.Unlock()
}

// applyChanges purges every (name, type) a delta touched — NS sets also
// purge their glue via the cache's O(glue) index — and refetches what was
// actually evicted when purge+prefetch is on.
func (s *Subscriber) applyChanges(origin dnswire.Name, changes []ChangeSet, now time.Time) {
	seen := make(map[cache.Key]struct{})
	var keys []cache.Key
	for _, cs := range changes {
		for _, sec := range [2][]dnswire.RR{cs.Del, cs.Add} {
			for _, rr := range sec {
				k := cache.Key{Name: rr.Name, Type: rr.Type}
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				keys = append(keys, k)
			}
		}
	}
	s.purgeKeys(keys, now)
}

// applyFull is the fallback path: with no delta to target, every cached key
// under the zone is purged.
func (s *Subscriber) applyFull(origin dnswire.Name, now time.Time) {
	seen := make(map[cache.Key]struct{})
	var keys []cache.Key
	for _, store := range s.cfg.Stores {
		for _, k := range store.Keys() {
			if !k.Name.IsSubdomainOf(origin) {
				continue
			}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Name != keys[j].Name {
			return keys[i].Name < keys[j].Name
		}
		return keys[i].Type < keys[j].Type
	})
	s.purgeKeys(keys, now)
}

// purgeKeys removes the keys from every store, records the purge instants
// for the stale gate, and refetches evicted keys in purge+prefetch mode.
func (s *Subscriber) purgeKeys(keys []cache.Key, now time.Time) {
	var refetch []cache.Key
	for _, k := range keys {
		removed := false
		for _, store := range s.cfg.Stores {
			if store.Remove(k.Name, k.Type) {
				removed = true
				s.m.purged.Inc()
			}
			if k.Type == dnswire.TypeNS {
				n := store.PurgeGlueOf(k.Name)
				if n > 0 {
					s.m.purged.Add(uint64(n))
				}
			}
		}
		if removed && k.Type != dnswire.TypeSOA {
			refetch = append(refetch, k)
		}
	}
	s.mu.Lock()
	for _, k := range keys {
		s.purged[k] = now
	}
	s.prunePurgedLocked(now)
	s.mu.Unlock()
	if fn := s.cfg.Refetch; fn != nil {
		for _, k := range refetch {
			s.m.refetches.Inc()
			fn(k.Name, k.Type)
		}
	}
}

// prunePurgedLocked bounds the purge-instant map: once it outgrows 4096
// entries, stamps older than an hour are dropped — far past any serve-stale
// window they could still veto.
func (s *Subscriber) prunePurgedLocked(now time.Time) {
	if len(s.purged) <= 4096 {
		return
	}
	cutoff := now.Add(-time.Hour)
	for k, t := range s.purged {
		if t.Before(cutoff) {
			delete(s.purged, k)
		}
	}
}

// AllowStale implements resolver.StaleGate. Names outside any subscribed
// zone pass through; a covered name is denied when its subscription is
// unhealthy (missed purges are possible) or when the entry predates a
// recorded purge of that key (known-superseded data).
func (s *Subscriber) AllowStale(name dnswire.Name, qtype dnswire.Type, storedAt time.Time) bool {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var zs *zoneSub
	for n := name; ; n = n.Parent() {
		if sub, ok := s.zones[n]; ok {
			zs = sub
			break
		}
		if n.IsRoot() {
			break
		}
	}
	if zs == nil {
		return true
	}
	if !s.healthyLocked(zs, now) {
		s.m.staleDenied.Inc()
		return false
	}
	if t, ok := s.purged[cache.Key{Name: name, Type: qtype}]; ok && !storedAt.After(t) {
		s.m.staleDenied.Inc()
		return false
	}
	return true
}

// parseIXFR classifies an IXFR answer section: up to date (lone SOA),
// incremental (second record is an SOA: RFC 1995 Del/Add sections), or the
// AXFR-shaped full zone (full != nil holds the zone's non-SOA records).
func parseIXFR(ans []dnswire.RR) (cur uint32, changes []ChangeSet, full []dnswire.RR, upToDate bool, err error) {
	if len(ans) == 0 {
		return 0, nil, nil, false, fmt.Errorf("push: empty transfer response")
	}
	head, ok := ans[0].Data.(dnswire.SOA)
	if !ok || ans[0].Type != dnswire.TypeSOA {
		return 0, nil, nil, false, fmt.Errorf("push: transfer not SOA-framed")
	}
	cur = head.Serial
	if len(ans) == 1 {
		return cur, nil, nil, true, nil
	}
	if ans[1].Type != dnswire.TypeSOA {
		if ans[len(ans)-1].Type != dnswire.TypeSOA {
			return 0, nil, nil, false, fmt.Errorf("push: full transfer missing trailing SOA")
		}
		return cur, nil, ans[1 : len(ans)-1], false, nil
	}
	i := 1
	for i < len(ans) {
		soa, ok := ans[i].Data.(dnswire.SOA)
		if !ok || ans[i].Type != dnswire.TypeSOA {
			return 0, nil, nil, false, fmt.Errorf("push: delta section not led by SOA")
		}
		if i == len(ans)-1 {
			if soa.Serial != cur {
				return 0, nil, nil, false, fmt.Errorf("push: trailing SOA serial %d != %d", soa.Serial, cur)
			}
			break
		}
		cs := ChangeSet{From: soa.Serial, Del: []dnswire.RR{ans[i]}}
		i++
		for i < len(ans) && ans[i].Type != dnswire.TypeSOA {
			cs.Del = append(cs.Del, ans[i])
			i++
		}
		if i >= len(ans) {
			return 0, nil, nil, false, fmt.Errorf("push: delta missing add section")
		}
		addSOA, ok := ans[i].Data.(dnswire.SOA)
		if !ok {
			return 0, nil, nil, false, fmt.Errorf("push: add section not led by SOA")
		}
		cs.To = addSOA.Serial
		cs.Add = []dnswire.RR{ans[i]}
		i++
		for i < len(ans) && ans[i].Type != dnswire.TypeSOA {
			cs.Add = append(cs.Add, ans[i])
			i++
		}
		if n := len(changes); n > 0 && changes[n-1].To != cs.From {
			return 0, nil, nil, false, fmt.Errorf("push: delta %d->%d does not follow %d", cs.From, cs.To, changes[n-1].To)
		}
		changes = append(changes, cs)
	}
	if len(changes) == 0 {
		return cur, nil, nil, true, nil
	}
	if last := changes[len(changes)-1].To; last != cur {
		return 0, nil, nil, false, fmt.Errorf("push: deltas end at %d, not %d", last, cur)
	}
	return cur, changes, nil, false, nil
}
