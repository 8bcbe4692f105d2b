package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/farm"
	"dnsttl/internal/middleware"
	"dnsttl/internal/obs"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/stats"
)

// The water-torture tier measures the one workload the paper's TTL analysis
// cannot help with: a random-subdomain flood. Every attack qname is unique,
// so no TTL regime ever produces a cache hit — each attack query the farm
// accepts translates 1:1 into an authoritative query, exactly the
// random-subdomain failure mode "Modeling and Predicting DNS Server Load"
// models analytically. The tier crosses the two defenses this repo ships
// against that flood:
//
//   - "rrl": authoritative-side response rate limiting. The NXDomain band
//     keys on the *zone origin*, so the per-band bucket sees the full attack
//     rate despite the qname randomization, and slip sends every 2nd limited
//     response truncated so honest clients sharing the resolver's address
//     block can fall back to TCP.
//   - "edge": a per-client token-bucket stage in the farm's middleware
//     pipeline, which refuses the flood before it ever leaves the resolver.
//     Its effectiveness divides by the frontend count — each frontend runs
//     its own pipeline instance, and unique qnames spread across all of
//     them — which the frontends axis makes visible.
//
// against an unprotected baseline and the combination, at 1 and 4 frontends
// under private and shared cache topologies, with a fixed honest Zipf
// stream riding along to price the collateral damage. Every count in the
// report is an integer, so the golden JSON is byte-stable, and every cell
// rebuilds its world from the same seed, so the report is identical at any
// worker count.

// abuseAttackPrefix marks attack qnames. The honest workload generator
// names records w0000..w0149, so any label starting "wt" is attack-only.
const abuseAttackPrefix = "wt"

// attackName appends the seq-th attack qname, wt<seq, zero-padded to six
// digits>.example.org., to b.
func attackName(b []byte, seq int) []byte {
	b = append(b, abuseAttackPrefix...)
	for d := 100000; d > 1 && seq < d; d /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(seq), 10)
	return append(b, ".example.org."...)
}

// abuseEdgeSpec is the farm-side defense: one per-client token bucket in
// front of the resolver. The attacker runs at ~24 q/s against qps=1;
// honest clients at ~0.5 q/s each never touch the limit. action = "drop"
// starves the flood of even REFUSED responses.
const abuseEdgeSpec = `
entry = "guard"

[stage.guard]
type = "ratelimit"
qps = 1
burst = 20
action = "drop"
next = "resolve"

[stage.resolve]
type = "resolver"
`

// abuseRRLConfig is the authoritative-side defense: 2 responses/second
// sustained per ⟨band, client /24⟩ with a burst of 10 and BIND's slip=2.
func abuseRRLConfig() authoritative.RRLConfig {
	return authoritative.RRLConfig{RPS: 2, Burst: 10, Slip: 2, Prefix4: 24, Prefix6: 56}
}

// AbuseCell is one protection × frontends × topology cell. All fields are
// integers so the JSON encoding is byte-stable; rates use milli-units
// (hits per 1000 queries).
type AbuseCell struct {
	Protection string        `json:"protection"`
	Frontends  int           `json:"frontends"`
	Topology   farm.Topology `json:"topology"`

	// The honest stream's outcome: collateral damage shows up here.
	HonestQueries  int `json:"honest_queries"`
	HonestAnswered int `json:"honest_answered"`
	HonestHitMilli int `json:"honest_hit_milli"`

	// The flood as the attacker experiences it.
	AttackQueries  int `json:"attack_queries"`
	AttackLimited  int `json:"attack_limited"`
	AttackNXDomain int `json:"attack_nxdomain"`
	AttackServFail int `json:"attack_servfail"`

	// The flood as the victim authoritative experiences it. Full responses
	// are the amplification currency — a slipped TC=1 reply is smaller
	// than the query and useless for reflection, and a dropped response is
	// free. BypassMilli is authoritative queries received per 1000 attack
	// queries issued: the cache-bypass rate.
	AuthAttackRx    int `json:"auth_attack_rx"`
	AuthAttackFull  int `json:"auth_attack_full"`
	AuthAttackSlip  int `json:"auth_attack_slipped"`
	AuthAttackDrop  int `json:"auth_attack_dropped"`
	AuthAttackBytes int `json:"auth_attack_bytes"`
	BypassMilli     int `json:"bypass_milli"`

	// The obs plane's view of the same fight, proving the counters an
	// operator would alert on actually move: auth.rrl_* on the victim,
	// mw.guard.limited on the farm edge.
	RRLPassed   int `json:"rrl_passed"`
	RRLDropped  int `json:"rrl_dropped"`
	RRLSlipped  int `json:"rrl_slipped"`
	EdgeLimited int `json:"edge_limited"`
}

// AbuseReport is the water-torture harness output, one cell per grid point.
type AbuseReport struct {
	Seed    int64       `json:"seed"`
	Queries int         `json:"queries"`
	Cells   []AbuseCell `json:"cells"`
}

// JSON renders the report in the golden format.
func (r *AbuseReport) JSON() []byte { return goldenJSON(r) }

// abuseGrid is the cell plan: every protection mode at every farm shape.
type abuseConfig struct {
	protection string
	nf         int
	topo       farm.Topology
}

// abuseShapes are the farm shapes every protection mode runs at.
var abuseShapes = []struct {
	nf   int
	topo farm.Topology
}{{1, farm.Private}, {4, farm.Private}, {4, farm.Shared}}

func abuseGrid() []abuseConfig {
	var grid []abuseConfig
	for _, sh := range abuseShapes {
		for _, p := range []string{"open", "rrl", "edge", "full"} {
			grid = append(grid, abuseConfig{protection: p, nf: sh.nf, topo: sh.topo})
		}
	}
	return grid
}

// abuseCell replays the full mixed workload against one configuration.
// queries is the honest stream length; three attack queries ride along
// with every honest arrival (~24 q/s attack against 8 q/s honest).
func abuseCell(cfg abuseConfig, queries int, seed int64) AbuseCell {
	const attackPerHonest = 3
	c := AbuseCell{Protection: cfg.protection, Frontends: cfg.nf, Topology: cfg.topo}

	// Same world as the fragmentation tier: 150 names at TTL 300 keeps the
	// honest stream mostly cache-served, so collateral shows up as lost
	// hit-points rather than noise.
	w := newZipfWorld(farmPlan, 150, 300, 8.0, seed, seed)
	reg := obs.NewRegistry(w.clock)
	w.orgSrv.Instrument(reg)
	if cfg.protection == "rrl" || cfg.protection == "full" {
		w.orgSrv.EnableRRL(abuseRRLConfig())
	}

	// Replace the fragmentation tap with one that attributes org-bound
	// traffic to the attack and classifies what came back: nothing (RRL
	// drop), a truncated slip, or a full amplifiable response.
	var m dnswire.Message
	w.net.Tap = func(ev simnet.TapEvent) {
		if ev.Dst != w.orgAddr {
			return
		}
		if !tapDecode(&m, ev.Query) || len(m.Question) == 0 ||
			!strings.HasPrefix(string(m.Q().Name), abuseAttackPrefix) {
			return
		}
		c.AuthAttackRx++
		if ev.Response == nil {
			c.AuthAttackDrop++
			return
		}
		c.AuthAttackBytes += len(ev.Response)
		if tapDecode(&m, ev.Response) && m.Header.TC {
			c.AuthAttackSlip++
		} else {
			c.AuthAttackFull++
		}
	}

	fm := farm.New(farm.Config{
		Frontends: cfg.nf,
		Topology:  cfg.topo,
		Coalesce:  true,
		Policy:    resolver.DefaultPolicy(),
		Seed:      seed,
		Registry:  reg,
	}, netip.MustParseAddr("10.40.0.1"), w.net, w.clock, []netip.Addr{w.rootAddr})
	if cfg.protection == "edge" || cfg.protection == "full" {
		if err := fm.SetPipeline(abuseEdgeSpec); err != nil {
			panic(err)
		}
	}

	// 16 honest stub clients share the farm; per-client rate ~0.5 q/s.
	honest := make([]netip.Addr, 16)
	for i := range honest {
		honest[i] = netip.AddrFrom4([4]byte{10, 99, 0, byte(i + 1)})
	}
	attacker := netip.MustParseAddr("10.66.6.6")

	// One Query serves the whole loop: no stage keeps it past its Resolve.
	ctx, mq := context.Background(), new(middleware.Query)
	var spelling []byte
	atkSeq := 0
	for q := 0; q < queries; q++ {
		gap, name := w.gen.Next()
		w.clock.Advance(gap)
		for a := 0; a < attackPerHonest; a++ {
			spelling = attackName(spelling[:0], atkSeq)
			atkSeq++
			c.AttackQueries++
			*mq = middleware.Query{Name: dnswire.Name(spelling), Type: dnswire.TypeA, Client: attacker}
			resp, err := fm.ResolveQuery(ctx, mq)
			switch {
			case err != nil || resp.Result == nil:
				c.AttackServFail++
			case resp.Verdict == middleware.VerdictLimited:
				c.AttackLimited++
			case resp.Result.Msg.Header.RCode == dnswire.RCodeNXDomain:
				c.AttackNXDomain++
			default:
				c.AttackServFail++
			}
		}
		c.HonestQueries++
		*mq = middleware.Query{Name: name, Type: dnswire.TypeA, Client: honest[q%len(honest)]}
		resp, err := fm.ResolveQuery(ctx, mq)
		if err == nil && resp.Result != nil {
			res := resp.Result
			if res.Msg.Header.RCode == dnswire.RCodeNoError && len(res.Msg.Answer) > 0 {
				c.HonestAnswered++
			}
			if res.CacheHit {
				c.HonestHitMilli++ // raw hit count for now; scaled below
			}
		}
	}
	if c.HonestQueries > 0 {
		c.HonestHitMilli = c.HonestHitMilli * 1000 / c.HonestQueries
	}
	if c.AttackQueries > 0 {
		c.BypassMilli = c.AuthAttackRx * 1000 / c.AttackQueries
	}
	counts := reg.Snapshot().Counters
	c.RRLPassed = int(counts[authoritative.MetricRRLPassed])
	c.RRLDropped = int(counts[authoritative.MetricRRLDropped])
	c.RRLSlipped = int(counts[authoritative.MetricRRLSlipped])
	c.EdgeLimited = int(counts["mw.guard.limited"])
	return c
}

// WaterTortureRun replays the full grid and returns the raw integer report
// the goldens pin. Cells are fanned across workers; each rebuilds its own
// world from the same seed, so the report is byte-identical at any worker
// count.
func WaterTortureRun(queries, workers int, seed int64) *AbuseReport {
	if queries <= 0 {
		queries = 1600
	}
	grid := abuseGrid()
	cells := Sweep(len(grid), workers, func(i int) AbuseCell {
		return abuseCell(grid[i], queries, seed)
	})
	return &AbuseReport{Seed: seed, Queries: queries, Cells: cells}
}

// WaterTorture wraps the harness into the standard Report shape for the
// experiment runner, with the headline protection factors computed per
// farm shape: amplification cut (full responses reflected, open vs
// protected), cache-bypass rate, and honest hit-rate collateral.
func WaterTorture(queries, workers int, seed int64) *Report {
	rep := WaterTortureRun(queries, workers, seed)

	byKey := map[string]AbuseCell{}
	key := func(p string, nf int, topo farm.Topology) string {
		return fmt.Sprintf("%s_f%d_%s", p, nf, topo)
	}
	for _, c := range rep.Cells {
		byKey[key(c.Protection, c.Frontends, c.Topology)] = c
	}

	tbl := &stats.Table{
		Title: fmt.Sprintf("Water-torture flood (~24 q/s random subdomains) vs an 8 q/s honest Zipf stream, %s honest queries per cell",
			stats.FormatCount(rep.Queries)),
		Header: []string{"farm", "protection", "bypass", "auth full", "auth slip",
			"auth drop", "edge limited", "honest hit", "honest ans"},
	}
	m := map[string]float64{}
	for _, c := range rep.Cells {
		k := key(c.Protection, c.Frontends, c.Topology)
		tbl.AddRow(
			fmt.Sprintf("f%d/%s", c.Frontends, c.Topology), c.Protection,
			fmt.Sprintf("%d‰", c.BypassMilli),
			fmt.Sprintf("%d", c.AuthAttackFull),
			fmt.Sprintf("%d", c.AuthAttackSlip),
			fmt.Sprintf("%d", c.AuthAttackDrop),
			fmt.Sprintf("%d", c.EdgeLimited),
			fmt.Sprintf("%d‰", c.HonestHitMilli),
			fmt.Sprintf("%d/%d", c.HonestAnswered, c.HonestQueries),
		)
		m["bypass_milli_"+k] = float64(c.BypassMilli)
		m["auth_full_"+k] = float64(c.AuthAttackFull)
		m["auth_bytes_"+k] = float64(c.AuthAttackBytes)
		m["honest_hit_milli_"+k] = float64(c.HonestHitMilli)
		m["edge_limited_"+k] = float64(c.EdgeLimited)
	}
	// Headline factors per farm shape: how much of the amplification each
	// defense removes, and what it costs the honest stream.
	for _, sh := range abuseShapes {
		open := byKey[key("open", sh.nf, sh.topo)]
		for _, p := range []string{"rrl", "edge", "full"} {
			prot := byKey[key(p, sh.nf, sh.topo)]
			cut := 0.0
			if prot.AuthAttackFull > 0 {
				cut = float64(open.AuthAttackFull) / float64(prot.AuthAttackFull)
			}
			m[fmt.Sprintf("amp_cut_%s_f%d_%s", p, sh.nf, sh.topo)] = cut
			m[fmt.Sprintf("collateral_milli_%s_f%d_%s", p, sh.nf, sh.topo)] =
				float64(open.HonestHitMilli - prot.HonestHitMilli)
		}
	}

	return &Report{
		ID:    "Water torture",
		Title: "Random-subdomain floods bypass every TTL regime; RRL cuts the reflected amplification ≥5× and per-client edge limiting starves the flood, at <1 hit-point honest collateral",
		Text: tbl.String() + "\nbypass = authoritative queries per 1000 attack queries (unique qnames defeat the cache);\n" +
			"auth full = complete responses reflected to the attack (the amplification currency);\n" +
			"rrl's error band keys on the zone origin, so qname randomization cannot spread it thin;\n" +
			"edge limiting weakens with farm size: each frontend runs its own bucket.",
		Metrics: m,
	}
}
