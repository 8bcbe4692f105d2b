package push

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

var (
	authAddr = netip.MustParseAddr("192.0.2.53")
	subAddr  = netip.MustParseAddr("192.0.2.10")
)

// healthy reports whether origin's subscription is inside its health
// window.
func (s *Subscriber) healthy(origin dnswire.Name) bool {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	zs := s.zones[origin]
	return zs != nil && s.healthyLocked(zs, now)
}

// currentSerial returns the feed's current serial.
func (f *Feed) currentSerial() uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.serial
}

func testZone() *zone.Zone {
	z := zone.New(dnswire.NewName("example.org"))
	z.MustAdd(
		dnswire.NewSOA("example.org", 3600, "ns1.example.org", "admin.example.org", 1, 7200, 3600, 1209600, 300),
		dnswire.NewNS("example.org", 3600, "ns1.example.org"),
		dnswire.NewA("ns1.example.org", 3600, "192.0.2.53"),
		dnswire.NewA("www.example.org", 300, "192.0.2.80"),
	)
	return z
}

// world wires one authoritative server with a push authority to one
// subscriber over a simulated network.
type world struct {
	net   *simnet.Network
	clock *simnet.VirtualClock
	zone  *zone.Zone
	feed  *Feed
	auth  *Authority
	srv   *authoritative.Server
	sub   *Subscriber
	store cache.Store
}

func newWorld(t *testing.T, history int, mut func(cfg *Config)) *world {
	t.Helper()
	net := simnet.NewNetwork(1)
	clock := simnet.NewVirtualClock()
	z := testZone()
	f, err := NewFeed(z, history)
	if err != nil {
		t.Fatal(err)
	}
	auth := NewAuthority()
	auth.Send = func(dst netip.AddrPort, wire []byte) error {
		_, _, err := net.Exchange(authAddr, dst.Addr(), wire)
		return err
	}
	auth.AddFeed(f)
	srv := authoritative.NewServer(dnswire.NewName("ns1.example.org"), clock)
	srv.AddZone(z)
	srv.Push = auth
	net.Attach(authAddr, srv)
	cfg := Config{
		Addr:      subAddr,
		Net:       net,
		Clock:     clock,
		Stores:    []cache.Store{cache.New(clock, cache.Config{ServeStale: true})},
		PollEvery: time.Minute,
	}
	if mut != nil {
		mut(&cfg)
	}
	sub := NewSubscriber(cfg)
	net.Attach(subAddr, sub)
	return &world{
		net: net, clock: clock, zone: z, feed: f, auth: auth,
		srv: srv, sub: sub, store: cfg.Stores[0],
	}
}

func putA(store cache.Store, name string, ttl uint32) {
	n := dnswire.NewName(name)
	store.Put(cache.Entry{
		Key: cache.Key{Name: n, Type: dnswire.TypeA},
		RRs: []dnswire.RR{dnswire.NewA(name, ttl, "192.0.2.80")},
		TTL: ttl,
	})
}

func cached(store cache.Store, name string) bool {
	_, _, ok := store.Get(dnswire.NewName(name), dnswire.TypeA)
	return ok
}

// randomMutate applies one random zone mutation. uniq feeds the address
// generator so Adds never collide with an existing RDATA (a duplicate Add is
// a no-op and fires no change).
func randomMutate(z *zone.Zone, rng *rand.Rand, uniq *int) {
	host := fmt.Sprintf("host%d.example.org", rng.Intn(8))
	n := dnswire.NewName(host)
	switch rng.Intn(4) {
	case 0:
		*uniq++
		_ = z.Add(dnswire.NewA(host, 60, fmt.Sprintf("10.%d.%d.%d", *uniq/62500%200, *uniq/250%250, 1+*uniq%250)))
	case 1:
		z.Remove(n, dnswire.TypeA)
	case 2:
		*uniq++
		_ = z.Replace(n, dnswire.TypeA, dnswire.NewA(host, 120, fmt.Sprintf("10.%d.%d.%d", *uniq/62500%200, *uniq/250%250, 1+*uniq%250)))
	case 3:
		z.SetTTL(n, dnswire.TypeA, uint32(30+rng.Intn(600)))
	}
}

// TestFeedSerialMonotonic is the property test for serial allocation: every
// effective mutation advances the serial by exactly one, the zone's SOA
// always carries the feed's serial, and the history is a gapless chain.
func TestFeedSerialMonotonic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		z := testZone()
		f, err := NewFeed(z, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		uniq := 0
		for i := 0; i < 300; i++ {
			randomMutate(z, rng, &uniq)
			if got, want := z.Serial(), f.currentSerial(); got != want {
				t.Fatalf("seed %d: zone serial %d != feed serial %d", seed, got, want)
			}
		}
		changes, ok := f.ChangesSince(1)
		if !ok {
			t.Fatalf("seed %d: history does not cover serial 1", seed)
		}
		want := uint32(1)
		for _, cs := range changes {
			if cs.From != want || cs.To != want+1 {
				t.Fatalf("seed %d: change set %d->%d, want %d->%d", seed, cs.From, cs.To, want, want+1)
			}
			want++
		}
		if want != f.currentSerial() {
			t.Fatalf("seed %d: chain ends at %d, feed serial %d", seed, want, f.currentSerial())
		}
	}
}

func rrString(rr dnswire.RR) string {
	return fmt.Sprintf("%s|%d|%d|%v", rr.Name, uint16(rr.Type), rr.TTL, rr.Data)
}

func setKey(rr dnswire.RR) string {
	return fmt.Sprintf("%s|%d", rr.Name, uint16(rr.Type))
}

func zoneState(z *zone.Zone) map[string][]string {
	state := make(map[string][]string)
	for _, set := range z.AllSets() {
		for _, rr := range set.RRs {
			state[setKey(rr)] = append(state[setKey(rr)], rrString(rr))
		}
	}
	for _, v := range state {
		sort.Strings(v)
	}
	return state
}

func applyChangeSets(state map[string][]string, changes []ChangeSet) error {
	for _, cs := range changes {
		for _, rr := range cs.Del {
			k, s := setKey(rr), rrString(rr)
			idx := -1
			for i, have := range state[k] {
				if have == s {
					idx = i
					break
				}
			}
			if idx < 0 {
				return fmt.Errorf("delta %d->%d deletes %s which is not present", cs.From, cs.To, s)
			}
			state[k] = append(state[k][:idx], state[k][idx+1:]...)
			if len(state[k]) == 0 {
				delete(state, k)
			}
		}
		for _, rr := range cs.Add {
			state[setKey(rr)] = append(state[setKey(rr)], rrString(rr))
		}
	}
	for _, v := range state {
		sort.Strings(v)
	}
	return nil
}

// TestDeltaEquivalence is the property test for delta application: replaying
// the IXFR history onto a snapshot of the zone reproduces the zone's final
// state exactly, for random mutation sequences — including an apex SOA
// replace, whose serial the feed overrides.
func TestDeltaEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 11, 99} {
		z := testZone()
		f, err := NewFeed(z, 0)
		if err != nil {
			t.Fatal(err)
		}
		shadow := zoneState(z)
		rng := rand.New(rand.NewSource(seed))
		uniq := 0
		for i := 0; i < 200; i++ {
			randomMutate(z, rng, &uniq)
		}
		// An out-of-band SOA replace: the writer's serial (999) must be
		// overridden by the feed's stamp in both zone and delta.
		if err := z.Replace(z.Origin, dnswire.TypeSOA,
			dnswire.NewSOA("example.org", 1800, "ns2.example.org", "admin.example.org", 999, 7200, 3600, 1209600, 300)); err != nil {
			t.Fatal(err)
		}
		changes, ok := f.ChangesSince(1)
		if !ok {
			t.Fatalf("seed %d: history does not cover serial 1", seed)
		}
		if err := applyChangeSets(shadow, changes); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := zoneState(z); !reflect.DeepEqual(shadow, got) {
			t.Fatalf("seed %d: delta replay diverged from zone state\nreplayed: %v\nzone:     %v", seed, shadow, got)
		}
	}
}

// TestChangesSinceEdges pins the coverage contract.
func TestChangesSinceEdges(t *testing.T) {
	z := testZone()
	f, err := NewFeed(z, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cs, ok := f.ChangesSince(1); !ok || cs != nil {
		t.Fatalf("up-to-date ChangesSince = %v, %v", cs, ok)
	}
	if _, ok := f.ChangesSince(9); ok {
		t.Fatal("future serial reported covered")
	}
	for i := 0; i < 5; i++ {
		z.MustAdd(dnswire.NewA("www.example.org", 300, fmt.Sprintf("192.0.2.%d", 100+i)))
	}
	if _, ok := f.ChangesSince(1); ok {
		t.Fatal("serial past the trimmed history reported covered")
	}
	if cs, ok := f.ChangesSince(4); !ok || len(cs) != 2 {
		t.Fatalf("ChangesSince(4) = %d sets, %v; want 2, true", len(cs), ok)
	}
}

// TestPushPurgeOnNotify walks the full simulated pipeline: zone mutation ->
// feed -> NOTIFY -> subscriber pull -> IXFR -> targeted purge + refetch.
func TestPushPurgeOnNotify(t *testing.T) {
	var refetched []cache.Key
	w := newWorld(t, 0, func(cfg *Config) {
		cfg.Refetch = func(name dnswire.Name, qtype dnswire.Type) {
			refetched = append(refetched, cache.Key{Name: name, Type: qtype})
		}
	})
	putA(w.store, "www.example.org", 300)
	putA(w.store, "ns1.example.org", 3600)

	w.sub.Subscribe(w.zone.Origin, authAddr)
	if got := w.sub.Stats().Subscribes; got != 1 {
		t.Fatalf("Subscribes = %d", got)
	}
	if !w.sub.healthy(w.zone.Origin) {
		t.Fatal("fresh subscription not healthy")
	}

	www := dnswire.NewName("www.example.org")
	if err := w.zone.Replace(www, dnswire.TypeA, dnswire.NewA("www.example.org", 300, "192.0.2.81")); err != nil {
		t.Fatal(err)
	}

	if cached(w.store, "www.example.org") {
		t.Fatal("www.example.org A survived the notify purge")
	}
	if !cached(w.store, "ns1.example.org") {
		t.Fatal("untouched ns1.example.org A was purged")
	}
	st := w.sub.Stats()
	if st.Notifies != 1 || st.IXFR != 1 || st.Purged != 1 || st.AXFRFallback != 0 {
		t.Fatalf("subscriber stats = %+v", st)
	}
	if len(refetched) != 1 || refetched[0].Name != www || refetched[0].Type != dnswire.TypeA {
		t.Fatalf("refetched = %v, want exactly www/A", refetched)
	}
	as := w.auth.Stats()
	if as.Changes != 1 || as.Notifies != 1 || as.IXFRServed != 1 || as.Subscribers != 1 {
		t.Fatalf("authority stats = %+v", as)
	}

	// Instrument publishes the counters with what they have counted; Stats
	// and the registry read the same counts from then on.
	reg := obs.NewRegistry(w.clock)
	w.auth.Instrument(reg)
	if got := w.auth.Stats(); got != as {
		t.Fatalf("authority stats after Instrument = %+v, want %+v", got, as)
	}
	if err := w.zone.Replace(www, dnswire.TypeA, dnswire.NewA("www.example.org", 300, "192.0.2.82")); err != nil {
		t.Fatal(err)
	}
	if got, exported := w.auth.Stats().Notifies, reg.Snapshot().Counters[MetricFeedNotifies]; got != 2 || exported != 2 {
		t.Fatalf("after a second change: Stats().Notifies = %d, %s = %d, want 2 and 2", got, MetricFeedNotifies, exported)
	}
}

// TestNotifyAtMostOnce pins the at-most-once purge guarantee: duplicated and
// reordered notifies are acknowledged but never purge a serial twice.
func TestNotifyAtMostOnce(t *testing.T) {
	w := newWorld(t, 0, nil)
	putA(w.store, "www.example.org", 300)
	w.sub.Subscribe(w.zone.Origin, authAddr)

	www := dnswire.NewName("www.example.org")
	if err := w.zone.Replace(www, dnswire.TypeA, dnswire.NewA("www.example.org", 300, "192.0.2.81")); err != nil {
		t.Fatal(err)
	}
	base := w.sub.Stats()
	if base.Purged != 1 || base.IXFR != 1 {
		t.Fatalf("setup stats = %+v", base)
	}

	// The resolver re-resolves; the entry is cached again.
	putA(w.store, "www.example.org", 300)

	notifyAt := func(serial uint32) []byte {
		soa, ok := w.zone.SOA()
		if !ok {
			t.Fatal("zone lost its SOA")
		}
		data := soa.Data.(dnswire.SOA)
		data.Serial = serial
		soa.Data = data
		m := &dnswire.Message{
			Header:   dnswire.Header{ID: 7777, Opcode: dnswire.OpcodeNotify, AA: true},
			Question: []dnswire.Question{{Name: w.zone.Origin, Type: dnswire.TypeSOA, Class: dnswire.ClassIN}},
		}
		m.AddAnswer(soa)
		wire, err := dnswire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}

	// Duplicate the current-serial notify three times, then replay the
	// pre-change serial (a reordered stale notify).
	cur := w.feed.currentSerial()
	for i := 0; i < 3; i++ {
		ack := w.sub.ServeDNS(notifyAt(cur), authAddr)
		resp, err := dnswire.Decode(ack)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Header.QR || resp.Header.Opcode != dnswire.OpcodeNotify || !resp.Header.AA {
			t.Fatalf("notify ack header = %+v", resp.Header)
		}
	}
	w.sub.ServeDNS(notifyAt(cur-1), authAddr)

	st := w.sub.Stats()
	if st.NotifyDups != 4 {
		t.Fatalf("NotifyDups = %d, want 4", st.NotifyDups)
	}
	if st.Purged != base.Purged || st.IXFR != base.IXFR {
		t.Fatalf("replayed notifies purged again: %+v (base %+v)", st, base)
	}
	if !cached(w.store, "www.example.org") {
		t.Fatal("replayed notify purged the re-resolved entry")
	}
}

// TestPollRecovery pins the fallback: with the push channel dead, the SOA
// poll detects the advanced serial and recovers the purge via IXFR.
func TestPollRecovery(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.auth.Send = nil // push channel drops every notify
	putA(w.store, "www.example.org", 300)
	w.sub.Subscribe(w.zone.Origin, authAddr)

	www := dnswire.NewName("www.example.org")
	if err := w.zone.Replace(www, dnswire.TypeA, dnswire.NewA("www.example.org", 300, "192.0.2.81")); err != nil {
		t.Fatal(err)
	}
	if !cached(w.store, "www.example.org") {
		t.Fatal("entry purged although no notify could have arrived")
	}

	w.clock.Advance(time.Minute)
	w.sub.Tick(w.clock.Now())

	st := w.sub.Stats()
	if st.Polls != 1 || st.PollRecoveries != 1 || st.IXFR != 1 {
		t.Fatalf("stats after poll = %+v", st)
	}
	if cached(w.store, "www.example.org") {
		t.Fatal("poll recovery did not purge the stale entry")
	}
}

// TestAXFRFallback pins the full-zone path: a subscriber further behind than
// the feed's history gets the AXFR-shaped transfer and purges everything it
// cached under the zone — and nothing outside it.
func TestAXFRFallback(t *testing.T) {
	w := newWorld(t, 2, nil)
	w.auth.Send = nil
	putA(w.store, "www.example.org", 300)
	putA(w.store, "unrelated.test", 300)
	w.sub.Subscribe(w.zone.Origin, authAddr)

	for i := 0; i < 5; i++ {
		w.zone.MustAdd(dnswire.NewA("www.example.org", 300, fmt.Sprintf("192.0.2.%d", 100+i)))
	}

	w.clock.Advance(time.Minute)
	w.sub.Tick(w.clock.Now())

	st := w.sub.Stats()
	if st.AXFRFallback != 1 || st.IXFR != 0 {
		t.Fatalf("stats after fallback = %+v", st)
	}
	if cached(w.store, "www.example.org") {
		t.Fatal("full fallback left a zone entry cached")
	}
	if !cached(w.store, "unrelated.test") {
		t.Fatal("full fallback purged an out-of-zone entry")
	}
	if got := w.auth.Stats().AXFRServed; got != 1 {
		t.Fatalf("authority AXFRServed = %d", got)
	}
}

// TestSubscribeRetryBackoff pins the resubscribe lifecycle: every Tick
// retries a failed subscription (there is no backoff), success restores
// health, and a zone the authority does not feed is refused.
func TestSubscribeRetryBackoff(t *testing.T) {
	net := simnet.NewNetwork(1)
	clock := simnet.NewVirtualClock()
	sub := NewSubscriber(Config{
		Addr:  subAddr,
		Net:   net,
		Clock: clock,
	})
	origin := dnswire.NewName("example.org")

	// Nothing is attached at the authority address yet: every attempt fails.
	sub.Subscribe(origin, authAddr)
	if got := sub.Stats().SubscribeRetries; got != 1 {
		t.Fatalf("SubscribeRetries = %d", got)
	}
	if sub.healthy(origin) {
		t.Fatal("failed subscription reported healthy")
	}

	// Every Tick retries a failed subscription.
	sub.Tick(clock.Now())
	if got := sub.Stats().SubscribeRetries; got != 2 {
		t.Fatalf("SubscribeRetries after a Tick = %d", got)
	}

	// The authority comes up; the next Tick's attempt succeeds and the
	// subscription is healthy again.
	z := testZone()
	f, err := NewFeed(z, 0)
	if err != nil {
		t.Fatal(err)
	}
	auth := NewAuthority()
	auth.AddFeed(f)
	srv := authoritative.NewServer(dnswire.NewName("ns1.example.org"), clock)
	srv.AddZone(z)
	srv.Push = auth
	net.Attach(authAddr, srv)

	clock.Advance(20 * time.Second)
	sub.Tick(clock.Now())
	st := sub.Stats()
	if st.Subscribes != 1 || st.SubscribeRetries != 2 {
		t.Fatalf("stats after recovery = %+v", st)
	}
	if !sub.healthy(origin) {
		t.Fatal("recovered subscription not healthy")
	}

	// A zone this authority does not feed is refused and retried.
	sub.Subscribe(dnswire.NewName("other.org"), authAddr)
	if got := sub.Stats().SubscribeRetries; got != 3 {
		t.Fatalf("refused subscription not booked as retry: %d", got)
	}
}

// TestAllowStale pins the stale-gate semantics: names outside any
// subscription pass through, purged entries older than their purge are
// vetoed, and an unhealthy subscription vetoes everything it covers.
func TestAllowStale(t *testing.T) {
	w := newWorld(t, 0, nil)
	w.sub.Subscribe(w.zone.Origin, authAddr)
	www := dnswire.NewName("www.example.org")
	epoch := w.clock.Now()

	if !w.sub.AllowStale(dnswire.NewName("www.example.com"), dnswire.TypeA, epoch) {
		t.Fatal("uncovered name was vetoed")
	}
	if !w.sub.AllowStale(www, dnswire.TypeA, epoch) {
		t.Fatal("healthy un-purged name was vetoed")
	}

	putA(w.store, "www.example.org", 300)
	if err := w.zone.Replace(www, dnswire.TypeA, dnswire.NewA("www.example.org", 300, "192.0.2.81")); err != nil {
		t.Fatal(err)
	}
	// Stored at or before the purge instant: known-superseded, vetoed.
	if w.sub.AllowStale(www, dnswire.TypeA, epoch) {
		t.Fatal("purged entry was served stale")
	}
	// Stored after the purge: fresh data, allowed.
	if !w.sub.AllowStale(www, dnswire.TypeA, epoch.Add(time.Second)) {
		t.Fatal("entry stored after the purge was vetoed")
	}
	if got := w.sub.Stats().StaleDenied; got != 1 {
		t.Fatalf("StaleDenied = %d", got)
	}

	// No contact for 2 x PollEvery: the subscription goes
	// unhealthy and every covered name is vetoed, purged or not.
	w.clock.Advance(3 * time.Minute)
	if w.sub.AllowStale(dnswire.NewName("other.example.org"), dnswire.TypeA, w.clock.Now()) {
		t.Fatal("unhealthy subscription allowed serve-stale")
	}
	if got := w.sub.Stats().StaleDenied; got != 2 {
		t.Fatalf("StaleDenied = %d", got)
	}
}

// TestPushRaceHammer drives concurrent zone mutations, notify fan-out, cache
// reads, stale-gate checks, and subscription ticks across 16 frontend stores.
// Run with -race; the assertions are deliberately light — the test's job is
// to surface data races and lock-order deadlocks.
func TestPushRaceHammer(t *testing.T) {
	clock := simnet.NewVirtualClock()
	stores := make([]cache.Store, 16)
	for i := range stores {
		stores[i] = cache.New(clock, cache.Config{ServeStale: true})
	}
	w := newWorld(t, 0, func(cfg *Config) {
		cfg.Clock = clock
		cfg.Stores = stores
	})
	w.sub.Subscribe(w.zone.Origin, authAddr)
	for _, store := range stores {
		for i := 0; i < 8; i++ {
			putA(store, fmt.Sprintf("host%d.example.org", i), 300)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				host := fmt.Sprintf("host%d.example.org", i%8)
				_ = w.zone.Replace(dnswire.NewName(host), dnswire.TypeA,
					dnswire.NewA(host, 300, fmt.Sprintf("10.%d.%d.%d", g, i, 1+(g*30+i)%250)))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := dnswire.NewName(fmt.Sprintf("host%d.example.org", i%8))
				stores[(g*200+i)%len(stores)].Get(name, dnswire.TypeA)
				w.sub.AllowStale(name, dnswire.TypeA, clock.Now())
				w.sub.healthy(w.zone.Origin)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				w.sub.Tick(clock.Now())
			}
		}()
	}
	wg.Wait()

	if got, want := w.zone.Serial(), w.feed.currentSerial(); got != want {
		t.Fatalf("zone serial %d != feed serial %d after hammer", got, want)
	}
	if w.sub.Stats().Notifies == 0 {
		t.Fatal("hammer delivered no notifies")
	}
	// Converge: one final poll must leave the subscriber at the feed's serial
	// (a trailing notify may have been suppressed by an in-flight pull).
	w.clock.Advance(time.Minute)
	w.sub.Tick(w.clock.Now())
	if !w.sub.healthy(w.zone.Origin) {
		t.Fatal("subscription unhealthy after hammer")
	}
}

// TestInstrumentWhileServing publishes the authority's counters while four
// goroutines commit zone changes it fans out: every change, notify and
// transfer is counted once, so the registry and Stats agree, and under
// -race the publication does not race the fan-out.
func TestInstrumentWhileServing(t *testing.T) {
	const goroutines, perGoroutine = 4, 40
	w := newWorld(t, 0, nil)
	w.sub.Subscribe(w.zone.Origin, authAddr)
	halfway := make(chan struct{}, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				if i == perGoroutine/2 {
					halfway <- struct{}{}
				}
				host := fmt.Sprintf("host%d.example.org", g)
				_ = w.zone.Replace(dnswire.NewName(host), dnswire.TypeA,
					dnswire.NewA(host, 300, fmt.Sprintf("10.0.%d.%d", g, i+1)))
			}
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-halfway
	}
	reg := obs.NewRegistry(w.clock)
	w.auth.Instrument(reg)
	wg.Wait()

	st, counts := w.auth.Stats(), reg.Snapshot().Counters
	if st.Changes != goroutines*perGoroutine || st.Notifies == 0 {
		t.Fatalf("authority stats = %+v, want %d changes and some notifies", st, goroutines*perGoroutine)
	}
	for name, want := range map[string]uint64{
		MetricFeedChanges:    st.Changes,
		MetricFeedNotifies:   st.Notifies,
		MetricFeedIXFRServed: st.IXFRServed,
		MetricFeedAXFRServed: st.AXFRServed,
	} {
		if got := counts[name]; got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
}
