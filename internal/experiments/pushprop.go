package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/farm"
	"dnsttl/internal/latency"
	"dnsttl/internal/push"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
)

// The push-propagation harness measures the third propagation axis the
// paper's TTL story leaves open: instead of choosing between a short TTL
// (fresh but expensive) and a long TTL (cheap but stale), the authoritative
// publishes a change feed and subscribed resolvers purge on NOTIFY. Each
// cell replays the same update schedule against one configuration —
// short-TTL polling, long-TTL polling, long-TTL+push (with and without
// prefetch, at two update rates, across farm topologies), and push with the
// notify channel cut — and records per-round staleness, cache misses, and
// authoritative query volume as pure-integer JSON. The goldens in testdata/
// pin the whole propagation semantics byte for byte.

const (
	// pushRounds x pushInterval = a 48-minute window, long enough for three
	// updates at the default spacing and for the TTL-60 polling cell to pay
	// its refresh cost ~once a minute.
	pushRounds   = 96
	pushInterval = 30 * time.Second
	// pushFirstUpdate is the round of the first zone update. Odd rounds land
	// mid-TTL for the 60 s polling cell (entries refresh on even rounds), so
	// polling's inherent staleness window is actually exercised.
	pushFirstUpdate = 9
)

// pushSubAddr is the resolver service's push-subscriber address; frontends
// occupy pushFarmAddr, pushFarmAddr+1, ...
var (
	pushSubAddr  = netip.MustParseAddr("10.88.0.1")
	pushFarmAddr = netip.MustParseAddr("10.88.0.10")
)

// PushScenario is one cell of the propagation sweep.
type PushScenario struct {
	// Name labels the cell in reports and goldens.
	Name string `json:"name"`
	// TTL is www.cachetest.net's record TTL.
	TTL uint32 `json:"ttl"`
	// Push subscribes the resolver service to the zone's change feed.
	Push bool `json:"push"`
	// Prefetch re-resolves purged names immediately (purge+prefetch).
	Prefetch bool `json:"prefetch"`
	// Frontends sizes the resolver farm; 0 means a single resolver.
	Frontends int `json:"frontends,omitempty"`
	// SharedCache backs the farm with one shared store instead of private
	// per-frontend caches.
	SharedCache bool `json:"shared_cache,omitempty"`
	// UpdateEvery is the round spacing between zone updates (first at round
	// pushFirstUpdate); 0 means the zone never changes.
	UpdateEvery int `json:"update_every"`
	// PollSeconds is the subscriber's SOA-poll fallback period — the
	// staleness bound it accepts when the push channel fails.
	PollSeconds int `json:"poll_seconds,omitempty"`
	// DropSpec, in the ParseFaultSchedule grammar, cuts the notify channel
	// (faults on the subscriber address hit only authoritative->resolver
	// traffic; the resolver's own polls and pulls are unaffected).
	DropSpec string `json:"drop_spec,omitempty"`
}

// PushRound is one probe round's outcome, all integers for byte-stable JSON.
type PushRound struct {
	Round int `json:"round"`
	// Answered counts clients that got an A answer this round.
	Answered int `json:"answered"`
	// Stale counts answers carrying the superseded address.
	Stale int `json:"stale"`
	// StaleSeconds charges pushInterval per stale answer.
	StaleSeconds int `json:"stale_seconds"`
	// Misses counts client resolutions the cache could not answer.
	Misses int `json:"misses"`
	// AuthQueries is the round's query count at ns1.cachetest.net —
	// including the push plane's subscribes, pulls, and polls, so notify
	// overhead is charged to the same budget it claims to save.
	AuthQueries int `json:"auth_queries"`
	// Notifies / Pulls / Polls are the round's push-plane traffic.
	Notifies int `json:"notifies,omitempty"`
	Pulls    int `json:"pulls,omitempty"`
	Polls    int `json:"polls,omitempty"`
}

// PushTotals sums a cell's run.
type PushTotals struct {
	StaleSeconds     int `json:"stale_seconds"`
	StaleAnswers     int `json:"stale_answers"`
	Misses           int `json:"misses"`
	AuthQueries      int `json:"auth_queries"`
	NotifySent       int `json:"notify_sent"`
	IXFR             int `json:"ixfr"`
	AXFRFallback     int `json:"axfr_fallback"`
	Polls            int `json:"polls"`
	PollRecoveries   int `json:"poll_recoveries"`
	Purged           int `json:"purged"`
	Refetches        int `json:"refetches"`
	Subscribes       int `json:"subscribes"`
	SubscribeRetries int `json:"subscribe_retries"`
	StaleDenied      int `json:"stale_denied"`
}

// PushResult is one cell's full replay.
type PushResult struct {
	Scenario PushScenario `json:"scenario"`
	Rounds   []PushRound  `json:"rounds"`
	Totals   PushTotals   `json:"totals"`
}

// PushReport is the harness output: one result per cell.
type PushReport struct {
	Seed    int64        `json:"seed"`
	Clients int          `json:"clients"`
	Results []PushResult `json:"results"`
}

// PushScenarios returns the canned cell set the goldens pin: the
// {polling, push, push+prefetch} x update-rate x fleet-size cross, plus the
// dropped-notify chaos cell. Update spacing 32 puts updates at rounds 9, 41,
// 73; the fast-churn cell updates every 8 rounds.
func PushScenarios() []PushScenario {
	return []PushScenario{
		{
			// The paper's freshness tool: a short TTL. Fresh within 60 s of
			// any change, at ~one authoritative query per minute forever.
			Name: "poll-ttl60", TTL: 60, UpdateEvery: 32,
		},
		{
			// The paper's load tool: a long TTL. One fetch per hour, stale
			// until expiry after every change.
			Name: "poll-ttl3600", TTL: 3600, UpdateEvery: 32,
		},
		{
			// Long TTL + change feed: the NOTIFY purges the record the
			// instant it changes; polling is demoted to a lazy safety net.
			Name: "push-ttl3600", TTL: 3600, Push: true,
			UpdateEvery: 32, PollSeconds: 1800,
		},
		{
			// Purge+prefetch: the subscriber re-resolves the purged name
			// immediately, so clients never even pay the refill miss.
			Name: "push-prefetch-ttl3600", TTL: 3600, Push: true, Prefetch: true,
			UpdateEvery: 32, PollSeconds: 1800,
		},
		{
			// 4x the update rate: push cost scales with change rate, not
			// with TTL or time.
			Name: "push-fastchurn", TTL: 3600, Push: true,
			UpdateEvery: 8, PollSeconds: 1800,
		},
		{
			// 16 private frontend caches: one subscriber purges all 16, but
			// every frontend refills separately — fragmentation (§4.4)
			// multiplies even push-plane refill cost.
			Name: "push-farm16-private", TTL: 3600, Push: true, Frontends: 16,
			UpdateEvery: 32, PollSeconds: 1800,
		},
		{
			// The same fleet behind one shared cache refills once per update.
			Name: "push-farm16-shared", TTL: 3600, Push: true, Frontends: 16,
			SharedCache: true, UpdateEvery: 32, PollSeconds: 1800,
		},
		{
			// Chaos: the notify channel is cut across the middle update
			// (t=900..1980 s; the update lands at t=1230 s). The tight 300 s
			// poll fallback bounds the stale window and recovers the purge.
			Name: "push-dropped-notify", TTL: 3600, Push: true,
			UpdateEvery: 32, PollSeconds: 300,
			DropSpec: "outage:" + pushSubAddr.String() + ":900s+1080s",
		},
	}
}

// answerA returns the first A answer's address, or "".
func answerA(m *dnswire.Message) string {
	if m == nil {
		return ""
	}
	for _, rr := range m.Answer {
		if a, ok := rr.Data.(dnswire.A); ok {
			return a.Addr.String()
		}
	}
	return ""
}

// PushReplay runs one cell with the given client count and returns its
// per-round outcome. Each call builds a fresh seeded testbed, so replays are
// independent and byte-identical per (scenario, clients, seed).
func PushReplay(sc PushScenario, clients int, seed int64) PushResult {
	tb := NewTestbed(seed)
	www := dnswire.NewName("www.cachetest.net")
	if !tb.Ct.SetTTL(www, dnswire.TypeA, sc.TTL) {
		panic("push scenario: missing record")
	}
	ctSrv := tb.Servers[tb.CtAddr]

	frontends := sc.Frontends
	if frontends < 1 {
		frontends = 1
	}
	fcfg := farm.Config{Frontends: frontends, Policy: resolver.DefaultPolicy(), Seed: seed}
	if sc.SharedCache {
		fcfg.Topology = farm.Shared
	}
	tb.Topo.Place(pushSubAddr, latency.EU)
	for i, a := 0, pushFarmAddr; i < frontends; i++ {
		tb.Topo.Place(a, latency.EU)
		a = a.Next()
	}
	svc := farm.New(fcfg, pushFarmAddr, tb.Net, tb.Clock, []netip.Addr{tb.RootAddr})

	var (
		sub  *push.Subscriber
		auth *push.Authority
	)
	if sc.Push {
		feed, err := push.NewFeed(tb.Ct, 0)
		if err != nil {
			panic(fmt.Sprintf("push scenario %s: %v", sc.Name, err))
		}
		auth = push.NewAuthority()
		auth.Send = func(dst netip.AddrPort, wire []byte) error {
			_, _, err := tb.Net.Exchange(tb.CtAddr, dst.Addr(), wire)
			return err
		}
		auth.AddFeed(feed)
		ctSrv.Push = auth
		pcfg := push.Config{
			Addr:      pushSubAddr,
			Net:       tb.Net,
			Clock:     tb.Clock,
			Stores:    svc.Stores(),
			PollEvery: time.Duration(sc.PollSeconds) * time.Second,
		}
		if sc.Prefetch {
			pcfg.Refetch = func(name dnswire.Name, qtype dnswire.Type) {
				_, _ = svc.Resolve(name, qtype)
			}
		}
		sub = push.NewSubscriber(pcfg)
		tb.Net.Attach(pushSubAddr, sub)
		svc.SetStaleGate(sub)
		sub.Subscribe(tb.Ct.Origin, tb.CtAddr)
	}
	if sc.DropSpec != "" {
		fs, err := simnet.ParseFaultSchedule(sc.DropSpec)
		if err != nil {
			panic(fmt.Sprintf("push scenario %s: %v", sc.Name, err))
		}
		fs.Seed = seed
		tb.Net.Faults = fs
	}

	truth := "192.88.99.80"
	version := 0
	nextUpdate := -1
	if sc.UpdateEvery > 0 {
		nextUpdate = pushFirstUpdate
	}
	var (
		prevAuthQ uint64
		prevSub   push.Stats
		prevAuth  push.AuthorityStats
	)
	out := PushResult{Scenario: sc}
	ctx, scratch := context.Background(), new(resolver.Result)
	for round := 0; round < pushRounds; round++ {
		now := tb.Clock.Now()
		if sub != nil {
			sub.Tick(now)
		}
		if round == nextUpdate {
			version++
			truth = fmt.Sprintf("192.88.99.%d", 80+version)
			if err := tb.Ct.Replace(www, dnswire.TypeA,
				dnswire.NewA("www.cachetest.net", sc.TTL, truth)); err != nil {
				panic(err)
			}
			nextUpdate += sc.UpdateEvery
		}
		pr := PushRound{Round: round}
		for c := 0; c < clients; c++ {
			res, err := svc.ResolveInto(ctx, scratch, www, dnswire.TypeA)
			if err != nil || res == nil {
				continue
			}
			if !res.CacheHit && !res.Coalesced {
				pr.Misses++
			}
			if addr := answerA(res.Msg); addr != "" {
				pr.Answered++
				if addr != truth {
					pr.Stale++
					pr.StaleSeconds += int(pushInterval / time.Second)
				}
			}
		}
		q := ctSrv.QueryCount()
		pr.AuthQueries = int(q - prevAuthQ)
		prevAuthQ = q
		if sub != nil {
			ss, as := sub.Stats(), auth.Stats()
			pr.Notifies = int(as.Notifies - prevAuth.Notifies)
			pr.Pulls = int(ss.IXFR + ss.AXFRFallback - prevSub.IXFR - prevSub.AXFRFallback)
			pr.Polls = int(ss.Polls - prevSub.Polls)
			prevSub, prevAuth = ss, as
		}
		out.Rounds = append(out.Rounds, pr)
		tb.Clock.Advance(pushInterval)
	}

	for _, pr := range out.Rounds {
		out.Totals.StaleSeconds += pr.StaleSeconds
		out.Totals.StaleAnswers += pr.Stale
		out.Totals.Misses += pr.Misses
		out.Totals.AuthQueries += pr.AuthQueries
	}
	if sub != nil {
		ss, as := sub.Stats(), auth.Stats()
		out.Totals.NotifySent = int(as.Notifies)
		out.Totals.IXFR = int(ss.IXFR)
		out.Totals.AXFRFallback = int(ss.AXFRFallback)
		out.Totals.Polls = int(ss.Polls)
		out.Totals.PollRecoveries = int(ss.PollRecoveries)
		out.Totals.Purged = int(ss.Purged)
		out.Totals.Refetches = int(ss.Refetches)
		out.Totals.Subscribes = int(ss.Subscribes)
		out.Totals.SubscribeRetries = int(ss.SubscribeRetries)
		out.Totals.StaleDenied = int(ss.StaleDenied)
	}
	return out
}

// PushRun replays every canned cell, fanning cells across workers. The
// report is identical at any worker count: each cell builds its own testbed
// and clock, and no state crosses cells.
func PushRun(clients, workers int, seed int64) *PushReport {
	scenarios := PushScenarios()
	results := Sweep(len(scenarios), workers, func(i int) PushResult {
		return PushReplay(scenarios[i], clients, seed)
	})
	return &PushReport{Seed: seed, Clients: clients, Results: results}
}

// JSON renders the report in the golden format.
func (r *PushReport) JSON() []byte { return goldenJSON(r) }

// PushExperiment wraps the harness into the standard Report shape: the JSON
// is the text artifact, and each cell contributes its staleness and
// authoritative-load totals as metrics.
func PushExperiment(clients, workers int, seed int64) *Report {
	rep := PushRun(clients, workers, seed)
	m := map[string]float64{}
	for _, res := range rep.Results {
		m["stale_seconds_"+res.Scenario.Name] = float64(res.Totals.StaleSeconds)
		m["auth_queries_"+res.Scenario.Name] = float64(res.Totals.AuthQueries)
	}
	return &Report{
		ID:      "Push propagation",
		Title:   "NOTIFY/IXFR change feeds vs TTL polling",
		Text:    string(rep.JSON()),
		Metrics: m,
	}
}
