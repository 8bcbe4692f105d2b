package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/latency"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
)

// The chaos harness replays canned fault schedules against the standard
// testbed and records exact per-round resolver outcomes — answered, stale,
// queries, timeouts, retries, hedges — as pure-integer JSON. The goldens in
// testdata/ pin the retry/backoff/hedging/serve-stale semantics byte for
// byte: any behavioral drift in the resolver's failure handling shows up as
// a golden diff, and TestChaosDeterministic proves the same report comes
// out at every worker count.
//
// Schedules are written in the ParseFaultSchedule grammar so the harness
// doubles as the parser's integration test. The testbed address plan is
// deterministic (addrSeq), so the specs can name servers directly:
// 192.88.0.1 is the root, 192.88.0.2 the gTLD farm, 192.88.0.7
// ns1.cachetest.net.

// chaosCtAddr is ns1.cachetest.net in the testbed's fixed address plan.
const chaosCtAddr = "192.88.0.7"

// chaosNS2Addr hosts the second cachetest.net nameserver the hedge scenario
// installs (outside the addrSeq range, attached to the same backend).
var chaosNS2Addr = netip.MustParseAddr("192.88.0.200")

// ChaosScenario is one canned chaos run: a fault schedule, the resolver
// policy that faces it, and the query stream.
type ChaosScenario struct {
	// Name labels the scenario in reports and goldens.
	Name string `json:"name"`
	// Spec is the fault schedule in ParseFaultSchedule grammar; empty means
	// a fault-free baseline.
	Spec string `json:"spec"`
	// Retry is the resolver retry plane under test; the zero value is the
	// legacy single-shot resolver.
	Retry resolver.RetryPolicy `json:"-"`
	// ServeStale arms RFC 8767 serving of expired entries.
	ServeStale bool `json:"-"`
	// SecondNS installs ns2.cachetest.net (a second address for the same
	// backend, placed a continent away) so hedged queries have a backup
	// candidate.
	SecondNS bool `json:"-"`
}

// ChaosRound is the summed outcome of one probe round. Every field is an
// integer, so the JSON encoding is byte-stable across runs and platforms.
type ChaosRound struct {
	Round    int `json:"round"`
	Answered int `json:"answered"`
	Stale    int `json:"stale"`
	Queries  int `json:"queries"`
	Timeouts int `json:"timeouts"`
	Retries  int `json:"retries"`
	Hedges   int `json:"hedges"`
}

// ChaosResult is one scenario's full replay.
type ChaosResult struct {
	Scenario string       `json:"scenario"`
	Spec     string       `json:"spec,omitempty"`
	Rounds   []ChaosRound `json:"rounds"`
}

// ChaosReport is the harness output: one result per scenario.
type ChaosReport struct {
	Seed    int64         `json:"seed"`
	Probes  int           `json:"probes"`
	Results []ChaosResult `json:"results"`
}

// ChaosScenarios returns the canned scenario set the goldens pin. The
// windows all use 600 s rounds: faults arm at round 2 (t=1200 s) and clear
// at round 6, except the flap which runs from the start.
func ChaosScenarios() []ChaosScenario {
	return []ChaosScenario{
		{
			// No faults, legacy resolver: the control row.
			Name: "baseline",
		},
		{
			// Hard outage bridged purely by serve-stale — §5's strongest
			// argument for RFC 8767.
			Name:       "outage-stale",
			Spec:       "outage:" + chaosCtAddr + ":1200s+2400s",
			ServeStale: true,
		},
		{
			// 60 % loss burst; four attempts with jittered backoff rescue
			// most rounds without stale answers.
			Name: "loss-retry",
			Spec: "loss:" + chaosCtAddr + ":1200s+2400s:0.6",
			Retry: resolver.RetryPolicy{
				Attempts: 4, Backoff: 200 * time.Millisecond, Jitter: 0.5,
			},
		},
		{
			// 40× latency spike on the primary; a hedged query to the
			// second (farther but healthy) nameserver wins the race.
			Name:     "spike-hedge",
			Spec:     "latency:" + chaosCtAddr + ":1200s+2400s:40",
			SecondNS: true,
			Retry: resolver.RetryPolicy{
				Hedge: 120 * time.Millisecond, OrderBySRTT: true,
			},
		},
		{
			// SERVFAIL storm: retries burn through the attempt budget
			// (failure rcodes are retryable under an active policy), then
			// serve-stale answers the client anyway.
			Name:       "servfail-storm",
			Spec:       "servfail:" + chaosCtAddr + ":1200s+2400s",
			ServeStale: true,
			Retry: resolver.RetryPolicy{
				Attempts: 3, Backoff: 100 * time.Millisecond,
			},
		},
		{
			// Flapping server, 450 s period, down half of each. Backoff
			// grows 30 s → 90 s → 270 s, and because retries ride the
			// resolution's accumulated virtual latency forward through the
			// schedule, the later attempts land in up-phases.
			Name: "flap-backoff",
			Spec: "flap:" + chaosCtAddr + ":0s+4800s:450s,0.5",
			Retry: resolver.RetryPolicy{
				Attempts: 4, Backoff: 30 * time.Second, Factor: 3,
				MaxBackoff: 300 * time.Second,
			},
		},
	}
}

// chaosRounds and chaosInterval shape every scenario's probe stream.
const (
	chaosRounds   = 8
	chaosInterval = 600 * time.Second
)

// ChaosReplay runs one scenario with the given probe count and returns its
// per-round outcome. Each call builds a fresh seeded testbed, so replays
// are independent and byte-identical per (scenario, probes, seed).
func ChaosReplay(sc ChaosScenario, probes int, seed int64) ChaosResult {
	tb := NewTestbed(seed)
	// A 60 s record expires between rounds, so every round exercises the
	// upstream path while the fault windows are live.
	if !tb.Ct.SetTTL(dnswire.NewName("www.cachetest.net"), dnswire.TypeA, 60) {
		panic("missing record")
	}
	if sc.SecondNS {
		tb.Ct.MustAdd(
			dnswire.NewNS("cachetest.net", 3600, "ns2.cachetest.net"),
			dnswire.NewA("ns2.cachetest.net", 3600, chaosNS2Addr.String()),
		)
		tb.Net_.MustAdd(
			dnswire.NewNS("cachetest.net", 172800, "ns2.cachetest.net"),
			dnswire.NewA("ns2.cachetest.net", 172800, chaosNS2Addr.String()),
		)
		tb.Net.Attach(chaosNS2Addr, tb.Servers[tb.CtAddr])
		tb.Topo.Place(chaosNS2Addr, latency.SA)
	}
	if sc.Spec != "" {
		fs, err := simnet.ParseFaultSchedule(sc.Spec)
		if err != nil {
			panic(fmt.Sprintf("chaos scenario %s: %v", sc.Name, err))
		}
		fs.Seed = seed
		tb.Net.Faults = fs
	}

	pol := resolver.DefaultPolicy()
	pol.ServeStale = sc.ServeStale
	pol.Retry = sc.Retry

	regions := []latency.Region{latency.EU, latency.NA, latency.SA}
	probesList := make([]*resolver.Resolver, probes)
	for i := range probesList {
		addr := netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
		tb.Topo.Place(addr, regions[i%len(regions)])
		probesList[i] = resolver.New(addr, pol, tb.Net, tb.Clock,
			[]netip.Addr{tb.RootAddr}, seed+int64(i))
	}

	name := dnswire.NewName("www.cachetest.net")
	out := ChaosResult{Scenario: sc.Name, Spec: sc.Spec}
	ctx, scratch := context.Background(), new(resolver.Result)
	for round := 0; round < chaosRounds; round++ {
		cr := ChaosRound{Round: round}
		for _, p := range probesList {
			res, err := p.ResolveInto(ctx, scratch, name, dnswire.TypeA)
			if err == nil && res.Msg.Header.RCode == dnswire.RCodeNoError &&
				len(res.Msg.Answer) > 0 {
				cr.Answered++
			}
			if res != nil {
				if res.Stale {
					cr.Stale++
				}
				cr.Queries += res.Queries
				cr.Timeouts += res.Timeouts
				cr.Retries += res.Retries
				cr.Hedges += res.Hedges
			}
		}
		out.Rounds = append(out.Rounds, cr)
		tb.Clock.Advance(chaosInterval)
	}
	return out
}

// ChaosRun replays every canned scenario, fanning scenarios across workers.
// The report is identical at any worker count: each scenario builds its own
// testbed and clock, and no state crosses cells.
func ChaosRun(probes, workers int, seed int64) *ChaosReport {
	scenarios := ChaosScenarios()
	results := Sweep(len(scenarios), workers, func(i int) ChaosResult {
		return ChaosReplay(scenarios[i], probes, seed)
	})
	return &ChaosReport{Seed: seed, Probes: probes, Results: results}
}

// JSON renders the report in the golden format.
func (r *ChaosReport) JSON() []byte { return goldenJSON(r) }

// ChaosExperiment wraps the harness into the standard Report shape for the
// experiment runner: the JSON is the text artifact, and per-scenario answer
// totals become metrics.
func ChaosExperiment(probes, workers int, seed int64, customSpec string) *Report {
	var rep *ChaosReport
	if customSpec != "" {
		sc := ChaosScenario{
			Name: "custom",
			Spec: customSpec,
			Retry: resolver.RetryPolicy{
				Attempts: 4, Backoff: 200 * time.Millisecond, Jitter: 0.5,
			},
			ServeStale: true,
		}
		rep = &ChaosReport{Seed: seed, Probes: probes,
			Results: []ChaosResult{ChaosReplay(sc, probes, seed)}}
	} else {
		rep = ChaosRun(probes, workers, seed)
	}
	m := map[string]float64{}
	for _, res := range rep.Results {
		answered, total := 0, 0
		for _, r := range res.Rounds {
			answered += r.Answered
			total += rep.Probes
		}
		m["answered_"+res.Scenario] = frac(answered, total)
	}
	return &Report{
		ID:      "chaos harness",
		Title:   "Scripted fault injection vs the resolver retry plane",
		Text:    string(rep.JSON()),
		Metrics: m,
	}
}
