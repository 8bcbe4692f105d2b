package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/entrada"
	"dnsttl/internal/latency"
	"dnsttl/internal/population"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/stats"
	"dnsttl/internal/zone"
)

// NlPassiveConfig sizes the §3.4 passive experiment: a .nl-like TLD with
// four authoritative servers (two of which we observe), a resolver
// population with heterogeneous client demand, and a two-day window.
type NlPassiveConfig struct {
	Resolvers int
	Days      int
	Seed      int64
}

// nlServers is the number of authoritative servers; the paper observed two
// of four.
const nlServers = 4

// NlPassive runs the experiment and produces Figures 3 and 4 plus the
// centricity census of §3.4.
func NlPassive(cfg NlPassiveConfig) *Report {
	if cfg.Resolvers <= 0 {
		cfg.Resolvers = 300
	}
	if cfg.Days <= 0 {
		cfg.Days = 2
	}
	clock := simnet.NewVirtualClock()
	net := simnet.NewNetwork(cfg.Seed)
	topo := latency.NewTopology()
	net.LatencyFor = topo.LatencyFor
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Root and the .nl infrastructure. The root glue for the ns[1-4]
	// addresses says 172800 s; the .nl zone's own copies say 3600 s —
	// exactly the §3.4 divergence.
	rootAddr := netip.MustParseAddr("192.88.10.1")
	topo.PlaceAnycast(rootAddr, latency.Route53Like())
	root := zone.New(dnswire.Root)
	root.MustAdd(
		dnswire.NewSOA(".", 86400, "a.root-servers.net.", "x.example.", 1, 1800, 900, 604800, 86400),
		dnswire.NewNS(".", 518400, "a.root-servers.net"),
		dnswire.NewA("a.root-servers.net", 518400, rootAddr.String()),
	)

	nl := zone.New(dnswire.NewName("nl"))
	nl.MustAdd(dnswire.NewSOA("nl", 3600, "ns1.dns.nl", "hostmaster.sidn.nl", 1, 1800, 900, 604800, 3600))
	var nlAddrs []netip.Addr
	nsNames := make([]dnswire.Name, nlServers)
	for i := 0; i < nlServers; i++ {
		addr := netip.MustParseAddr(fmt.Sprintf("192.88.11.%d", i+1))
		topo.Place(addr, latency.EU)
		nlAddrs = append(nlAddrs, addr)
		host := dnswire.NewName(fmt.Sprintf("ns%d.dns.nl", i+1))
		nsNames[i] = host
		root.MustAdd(
			dnswire.NewNS("nl", 172800, string(host)),
			dnswire.NewA(string(host), 172800, addr.String()), // parent glue: 2 days
		)
		nl.MustAdd(
			dnswire.NewNS("nl", 3600, string(host)),
			dnswire.NewA(string(host), 3600, addr.String()), // child copy: 1 hour
		)
	}
	// Client-visible content: a pool of .nl names with web-scale TTLs.
	for i := 0; i < 400; i++ {
		nl.MustAdd(dnswire.NewA(fmt.Sprintf("d%04d.nl", i), 300+uint32(rng.Intn(4))*300,
			fmt.Sprintf("100.80.%d.%d", i/250, i%250+1)))
	}

	rootSrv := authoritative.NewServer(dnswire.NewName("a.root-servers.net"), clock)
	rootSrv.AddZone(root)
	net.Attach(rootAddr, rootSrv)
	for i, addr := range nlAddrs {
		s := authoritative.NewServer(nsNames[i], clock)
		s.AddZone(nl)
		net.Attach(addr, s)
	}

	// ENTRADA view: a capture at the two observed servers, keeping only
	// queries for the four NS-host names. The network tap is the capture,
	// as it is for the other experiments that read traffic at a server.
	observed := map[netip.Addr]bool{nlAddrs[0]: true, nlAddrs[2]: true}
	names := map[dnswire.Name]bool{}
	for _, n := range nsNames {
		names[n] = true
	}
	wh := entrada.NewWarehouse()
	var m dnswire.Message
	net.Tap = func(ev simnet.TapEvent) {
		if !observed[ev.Dst] || ev.Response == nil {
			return
		}
		if tapDecode(&m, ev.Query) && names[m.Q().Name] {
			wh.Ingest(entrada.Row{Time: clock.Now(), Resolver: ev.Src, Name: m.Q().Name, Type: m.Q().Type})
		}
	}

	// Resolver population: mainstream child-centric software with glue
	// revalidation dominates; demand per resolver is heavy-tailed.
	builder := &population.Builder{Net: net, Clock: clock, RootHints: []netip.Addr{rootAddr}, LocalRootZone: root}
	mix := population.DefaultMix()
	type client struct {
		res  *resolver.Resolver
		next time.Time
		gap  time.Duration
		left int // remaining queries (-1 = unbounded)
	}
	clients := make([]*client, cfg.Resolvers)
	for i := range clients {
		p := mix.Pick(rng)
		addr := netip.AddrFrom4([4]byte{172, 20, byte(i >> 8), byte(i)})
		topo.Place(addr, latency.EU)
		c := &client{res: builder.Build(p, addr, rng.Int63())}
		switch x := rng.Float64(); {
		case x < 0.35: // heavy: continuous demand
			c.gap = time.Duration(5+rng.Intn(25)) * time.Minute
			c.left = -1
		case x < 0.60: // medium: every few hours
			c.gap = time.Duration(2+rng.Intn(5)) * time.Hour
			c.left = -1
		default: // sparse: one or two lookups over the window
			c.gap = time.Duration(8+rng.Intn(30)) * time.Hour
			c.left = 1 + rng.Intn(2)
		}
		c.next = clock.Now().Add(time.Duration(rng.Int63n(int64(c.gap))))
		clients[i] = c
	}

	// Event loop over the window. Only the authoritative's log is read, so
	// every resolution is written into one lent Result.
	end := clock.Now().Add(time.Duration(cfg.Days) * 24 * time.Hour)
	ctx, scratch := context.Background(), new(resolver.Result)
	for {
		// Find the earliest pending client.
		var nextC *client
		for _, c := range clients {
			if c.left == 0 {
				continue
			}
			if nextC == nil || c.next.Before(nextC.next) {
				nextC = c
			}
		}
		if nextC == nil || nextC.next.After(end) {
			break
		}
		clock.Set(nextC.next)
		name := dnswire.NewName(fmt.Sprintf("d%04d.nl", rng.Intn(400)))
		_, _ = nextC.res.ResolveInto(ctx, scratch, name, dnswire.TypeA)
		if nextC.left > 0 {
			nextC.left--
		}
		nextC.next = nextC.next.Add(nextC.gap + time.Duration(rng.Int63n(int64(time.Minute))))
	}

	census := wh.CentricityCensus()
	counts := wh.QueryCountSample(0)
	filtered := wh.QueryCountSample(2 * time.Second)
	minGaps := wh.MinInterarrivalSample(2 * time.Second)

	fig3 := stats.RenderCDF("Figure 3: queries per (resolver, qname) group over the window",
		"queries", map[string]*stats.Sample{"all": counts, "filtered >=2s": filtered}, 60, true)
	fig4 := stats.RenderCDF("Figure 4: minimum interarrival per multi-query group",
		"seconds", map[string]*stats.Sample{"min interarrival": minGaps}, 60, true)

	// Bump detection: mass of minimum interarrivals within ±5 min of
	// one-hour multiples (the child TTL).
	bumpMass := 0.0
	if minGaps.Len() > 0 {
		for h := 1; h <= 8; h++ {
			lo := float64(h*3600 - 300)
			hi := float64(h*3600 + 300)
			bumpMass += minGaps.FractionAtMost(hi) - minGaps.FractionAtMost(lo)
		}
	}

	hourHist := minGaps.Histogram([]float64{0, 1800, 3900, 7500, 11100, 14700, 86400})
	var histRows []string
	labels := []string{"<30m", "30m-65m", "65m-2h05", "2h05-3h05", "3h05-4h05", ">4h05"}
	for i, label := range labels {
		if i < len(hourHist) {
			histRows = append(histRows, fmt.Sprintf("  %-10s %6d", label, hourHist[i]))
		}
	}

	tbl := &stats.Table{Title: "§3.4 centricity census (observed at 2 of 4 servers)",
		Header: []string{"quantity", "value"}}
	tbl.AddRow("groups (resolver, qname)", stats.FormatCount(census.Groups))
	tbl.AddRow("unique resolvers", stats.FormatCount(census.UniqueResolvers))
	tbl.AddRow("multi-query groups", fmt.Sprintf("%s (%.1f%%)", stats.FormatCount(census.MultiQuery), 100*census.FractionMultiQuery()))
	tbl.AddRow("single-query groups", stats.FormatCount(census.SingleQuery))
	tbl.AddRow("single but multi elsewhere", stats.FormatCount(census.SingleButMultiElsewhere))

	text := tbl.String() + "\n" + fig3 + "\n" + fig4 + "\nmin-interarrival histogram:\n"
	for _, row := range histRows {
		text += row + "\n"
	}

	rep := &Report{
		ID:    "Figures 3-4",
		Title: "Passive .nl analysis: per-resolver query counts and interarrivals",
		Text:  text,
		Metrics: map[string]float64{
			"frac_multi_query":         census.FractionMultiQuery(),
			"groups":                   float64(census.Groups),
			"unique_resolvers":         float64(census.UniqueResolvers),
			"frac_single_but_multi":    frac(census.SingleButMultiElsewhere, census.SingleQuery),
			"bump_mass_hour_multiples": bumpMass,
			"rows_ingested":            float64(wh.Rows()),
		},
	}
	rep.AddSeries("queries_per_group", counts)
	rep.AddSeries("queries_per_group_filtered", filtered)
	rep.AddSeries("min_interarrival_s", minGaps)
	return rep
}
