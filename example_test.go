package dnsttl_test

import (
	"fmt"
	"net/netip"
	"time"

	"dnsttl"
)

// The effective-TTL model answers the paper's central question — which of
// the many configured TTLs do resolvers actually honor? Here, the .uy
// situation of early 2019.
func ExampleEffectiveNSTTL() {
	cfg := dnsttl.ZoneConfig{
		Domain:      dnsttl.NewName("uy"),
		ParentNSTTL: 172800, // the root's delegation
		ChildNSTTL:  300,    // the zone's own NS TTL
	}
	d := dnsttl.EffectiveNSTTL(cfg, dnsttl.MeasuredPopulation())
	fmt.Print(d)
	// Output:
	//     92.5%  TTL 300     child-centric (child NS TTL)
	//      7.5%  TTL 172800  parent-centric (parent NS TTL)
}

// The §4 finding as a one-liner: in-bailiwick server addresses live only
// as long as the NS set that carries their glue.
func ExampleEffectiveAddrTTL() {
	cfg := dnsttl.ZoneConfig{
		ChildNSTTL:   3600,
		ChildAddrTTL: 7200,
		Bailiwick:    dnsttl.BailiwickInOnly,
	}
	d := dnsttl.EffectiveAddrTTL(cfg, dnsttl.MeasuredPopulation())
	fmt.Printf("effective address TTL: %d s (configured %d s)\n", d.Min(), cfg.ChildAddrTTL)
	// Output:
	// effective address TTL: 3600 s (configured 7200 s)
}

// HitRate is the Jung et al. cache model: λT/(1+λT).
func ExampleHitRate() {
	for _, ttl := range []uint32{60, 1000, 86400} {
		fmt.Printf("TTL %6d: %.0f%%\n", ttl, 100*dnsttl.HitRate(ttl, 0.02))
	}
	// Output:
	// TTL     60: 55%
	// TTL   1000: 95%
	// TTL  86400: 100%
}

// Advise applies the paper's §6 recommendations to a configuration.
func ExampleAdvise() {
	cfg := dnsttl.ZoneConfig{
		Domain:      dnsttl.NewName("example.org"),
		ParentNSTTL: 86400, ChildNSTTL: 86400,
		ChildAddrTTL: 86400, Bailiwick: dnsttl.BailiwickOutOnly,
		ServiceTTL: 14400,
	}
	for _, rec := range dnsttl.Advise(cfg, dnsttl.Scenario{}) {
		fmt.Println(rec)
	}
	// Output:
	// [INFO] ok: configuration follows the paper's recommendations
}

// ParseZone reads RFC 1035 master-file syntax.
func ExampleParseZone() {
	z, err := dnsttl.ParseZone(`
$ORIGIN example.org.
@    3600 IN SOA ns1 admin 1 7200 3600 1209600 300
www  300  IN A 192.0.2.80
`, dnsttl.NewName("example.org"))
	if err != nil {
		panic(err)
	}
	set := z.Get(dnsttl.NewName("www.example.org"), dnsttl.TypeA)
	fmt.Println(set.RRs[0])
	// Output:
	// www.example.org.	300	IN	A	192.0.2.80
}

// The quickstart zones: a root delegating example.org, both served by one
// loopback authoritative.
const (
	quickstartRoot = `
$ORIGIN .
@                   86400 IN SOA a.root-servers.net. ops.example. 1 1800 900 604800 86400
@                   518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 127.0.0.1
example.org.        172800 IN NS ns1.example.org.
ns1.example.org.    172800 IN A 127.0.0.1
`
	quickstartOrg = `
$ORIGIN example.org.
@    3600 IN SOA ns1 admin 1 7200 3600 1209600 300
@    3600 IN NS ns1
ns1  3600 IN A 127.0.0.1
www  300  IN A 192.0.2.80
`
)

// A caching resolver in front of an authoritative server on loopback UDP:
// the second lookup is answered from cache with no upstream query — the
// paper's core observation in a few lines.
func ExampleClient() {
	srv := dnsttl.NewServer(dnsttl.NewName("a.root-servers.net"), nil)
	for origin, text := range map[string]string{".": quickstartRoot, "example.org": quickstartOrg} {
		z, err := dnsttl.ParseZone(text, dnsttl.NewName(origin))
		if err != nil {
			panic(err)
		}
		srv.AddZone(z)
	}
	addr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	// The library default is real UDP on port 53; the loopback server sits
	// on an ephemeral port, so build the pooled net for that port.
	udp, err := dnsttl.NewTransportNet(dnsttl.TransportUDP,
		dnsttl.TransportOptions{Port: addr.Port(), Timeout: 2 * time.Second})
	if err != nil {
		panic(err)
	}
	defer udp.Close()
	client, err := dnsttl.NewClient(dnsttl.ClientConfig{Roots: []netip.Addr{addr.Addr()}, Net: udp})
	if err != nil {
		panic(err)
	}
	for i := 1; i <= 2; i++ {
		res, err := client.Lookup(dnsttl.NewName("www.example.org"), dnsttl.TypeA)
		if err != nil {
			panic(err)
		}
		fmt.Printf("lookup %d: ttl=%d cache hit=%v upstream queries=%d\n", i, res.AnswerTTL, res.CacheHit, res.Queries)
	}
	// Output:
	// lookup 1: ttl=300 cache hit=false upstream queries=1
	// lookup 2: ttl=300 cache hit=true upstream queries=0
}

// §3 in miniature: which NS TTL do resolvers honor for a .uy-style zone —
// the parent's two days or the child's five minutes? The advisor's view,
// then the Figure 1a campaign, scaled down.
func ExampleRunExperiment_centricity() {
	cfg := dnsttl.ZoneConfig{
		Domain:        dnsttl.NewName("uy"),
		ParentNSTTL:   172800, // the root's delegation
		ChildNSTTL:    300,    // .uy's own NS TTL in early 2019
		ParentGlueTTL: 172800,
		ChildAddrTTL:  120,
		Bailiwick:     dnsttl.BailiwickMixed,
		ServiceTTL:    300,
	}
	fmt.Print(dnsttl.EffectiveNSTTL(cfg, dnsttl.MeasuredPopulation()))
	for _, rec := range dnsttl.Advise(cfg, dnsttl.Scenario{}) {
		fmt.Println(rec)
	}
	sc := dnsttl.QuickScale()
	sc.Probes = 150
	report, err := dnsttl.RunExperiment("figure1a", sc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("child-centric answers: %.1f%%\n", 100*report.Metric("frac_child_centric"))
	fmt.Printf("parent-side answers:   %.1f%%\n", 100*report.Metric("frac_parent_ttl"))
	fmt.Printf("full 172800 s answers: %.1f%%\n", 100*report.Metric("frac_full_parent"))
	// Output:
	//     92.5%  TTL 300     child-centric (child NS TTL)
	//      7.5%  TTL 172800  parent-centric (parent NS TTL)
	// [WARNING] parent-child-mismatch: parent NS TTL (172800) and child NS TTL (300) diverge: ~7.5% of resolvers are parent-centric and will use the parent's value; align them or accept a mixed effective TTL
	// [WARNING] short-ns-ttl: NS TTL 300 s prevents caching without an operational need; §5.3 measured median latency dropping from 28.7 ms to 8 ms when .uy raised 300 s to 86400 s — use 3600-86400 s
	// child-centric answers: 89.6%
	// parent-side answers:   10.4%
	// full 172800 s answers: 0.8%
}

// §4: where a nameserver's name lives decides how long its address is
// cached. The effective address lifetime in and out of bailiwick, then the
// renumbering campaign of Figures 6 and 7, scaled down.
func ExampleRunExperiment_bailiwick() {
	for _, bw := range []dnsttl.BailiwickClass{dnsttl.BailiwickInOnly, dnsttl.BailiwickOutOnly} {
		cfg := dnsttl.ZoneConfig{Domain: dnsttl.NewName("sub.cachetest.net"),
			ParentNSTTL: 3600, ChildNSTTL: 3600, ChildAddrTTL: 7200, ServiceTTL: 60, Bailiwick: bw}
		fmt.Printf("%s nameservers:\n", bw)
		fmt.Print(dnsttl.EffectiveAddrTTL(cfg, dnsttl.MeasuredPopulation()))
		for _, rec := range dnsttl.Advise(cfg, dnsttl.Scenario{}) {
			fmt.Println(" ", rec)
		}
	}
	sc := dnsttl.QuickScale()
	sc.Probes = 120
	report, err := dnsttl.RunExperiment("figures6-8", sc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("in-bailiwick switched at 60-120 min:     %.0f%%\n", 100*report.Metric("in_frac_new_after_ns_expiry"))
	fmt.Printf("out-of-bailiwick switched at 60-120 min: %.0f%%\n", 100*report.Metric("out_frac_new_after_ns_expiry"))
	fmt.Printf("out-of-bailiwick switched after 120 min: %.0f%%\n", 100*report.Metric("out_frac_new_after_both_expiry"))
	// Output:
	// in-only nameservers:
	//     99.8%  TTL 3600    in-bailiwick: address tied to NS expiry (min of the two)
	//      0.2%  TTL 7200    in-bailiwick, glue not refreshed on referral: address cached for its full TTL
	//   [ADVICE] in-bailiwick-addr-exceeds-ns: server address TTL (7200) exceeds the NS TTL (3600) but in-bailiwick addresses are re-fetched when the NS expires; the extra lifetime is never used — set them equal
	// out-only nameservers:
	//    100.0%  TTL 7200    out-of-bailiwick: address cached independently for its full TTL
	//   [INFO] out-of-bailiwick-independent: out-of-bailiwick server addresses are cached independently: renumbering takes effect only after the address TTL (7200 s), not the NS TTL
	// in-bailiwick switched at 60-120 min:     98%
	// out-of-bailiwick switched at 60-120 min: 5%
	// out-of-bailiwick switched after 120 min: 89%
}

// §6.1's DDoS argument: during a one-hour authoritative outage a zone stays
// reachable for about its TTL, unless resolvers serve stale; then what the
// advisor tells a DDoS-scrubbing operator of a one-hour-TTL zone.
func ExampleRunExperiment_resilience() {
	sc := dnsttl.QuickScale()
	sc.Probes = 120
	report, err := dnsttl.RunExperiment("outage-sweep", sc)
	if err != nil {
		panic(err)
	}
	// Availability by TTL: the whole outage, strict or serving stale, and a
	// partial one, strict, retrying, or both retrying and serving stale.
	fmt.Printf("%-7s%13s%13s%13s%13s%13s\n", "TTL (s)", "full", "full/stale", "partial", "retry", "retry/stale")
	for _, ttl := range []int{60, 600, 1800, 3600, 7200} {
		fmt.Printf("%-7d", ttl)
		for _, col := range []string{"", "_stale", "_partial", "_partial_retry", "_partial_retry_stale"} {
			fmt.Printf("%12.0f%%", 100*report.Metric(fmt.Sprintf("avail%s_ttl_%d", col, ttl)))
		}
		fmt.Println()
	}
	cfg := dnsttl.ZoneConfig{
		Domain:      dnsttl.NewName("shop.example"),
		ParentNSTTL: 172800, ChildNSTTL: 172800,
		ChildAddrTTL: 3600, Bailiwick: dnsttl.BailiwickOutOnly,
		ServiceTTL: 3600,
	}
	for _, rec := range dnsttl.Advise(cfg, dnsttl.Scenario{DDoSScrubbing: true}) {
		fmt.Println(rec)
	}
	// Output:
	// TTL (s)         full   full/stale      partial        retry  retry/stale
	// 60                0%         100%          31%          75%         100%
	// 600               7%         100%          44%          85%         100%
	// 1800             10%         100%          62%          92%         100%
	// 3600             60%         100%          80%          95%         100%
	// 7200            100%         100%         100%         100%         100%
	// [ADVICE] agility-service-ttl: DNS-based load balancing or DDoS redirection needs short *service* TTLs: 300-900 s (current 3600 s)
}

// The operator's TTL planner: the hit rate, client latency and
// authoritative load each service TTL buys (the Jung et al. cache model),
// then the §6 recommendations under each of the §6.1 trade-offs.
func ExampleEstimate() {
	w := dnsttl.DefaultWorkload()
	for _, ttl := range []uint32{0, 60, 300, 900, 3600, 14400, 86400} {
		cfg := dnsttl.ZoneConfig{ServiceTTL: ttl, ChildNSTTL: 86400, ParentNSTTL: 86400,
			ChildAddrTTL: 86400, Bailiwick: dnsttl.BailiwickOutOnly}
		est := dnsttl.Estimate(dnsttl.EffectiveServiceTTL(cfg, dnsttl.MeasuredPopulation()), w)
		fmt.Printf("TTL %5d s: hit rate %5.1f%%, mean latency %6v, %4.1f auth q/hour\n",
			ttl, 100*est.HitRate, est.MeanLatency.Round(100*time.Microsecond), est.AuthQueriesPerHour)
	}
	cfg := dnsttl.ZoneConfig{
		Domain:      dnsttl.NewName("example.org"),
		ParentNSTTL: 86400, ChildNSTTL: 86400,
		ChildAddrTTL: 86400, Bailiwick: dnsttl.BailiwickOutOnly,
		ServiceTTL: 3600,
	}
	for _, sc := range []struct {
		name     string
		scenario dnsttl.Scenario
	}{
		{"CDN-style steering", dnsttl.Scenario{DNSLoadBalancing: true}},
		{"DDoS scrubbing on a metered service", dnsttl.Scenario{DDoSScrubbing: true, MeteredDNS: true}},
		{"registry", dnsttl.Scenario{RegistryOperator: true}},
		{"scheduled changes only", dnsttl.Scenario{PlannedMaintenanceOnly: true}},
	} {
		fmt.Printf("%s:\n", sc.name)
		for _, rec := range dnsttl.Advise(cfg, sc.scenario) {
			fmt.Println(" ", rec)
		}
	}
	// Output:
	// TTL     0 s: hit rate   0.0%, mean latency   40ms, 72.0 auth q/hour
	// TTL    60 s: hit rate  54.5%, mean latency 20.4ms, 32.7 auth q/hour
	// TTL   300 s: hit rate  85.7%, mean latency  9.1ms, 10.3 auth q/hour
	// TTL   900 s: hit rate  94.7%, mean latency  5.9ms,  3.8 auth q/hour
	// TTL  3600 s: hit rate  98.6%, mean latency  4.5ms,  1.0 auth q/hour
	// TTL 14400 s: hit rate  99.7%, mean latency  4.1ms,  0.2 auth q/hour
	// TTL 86400 s: hit rate  99.9%, mean latency    4ms,  0.0 auth q/hour
	// CDN-style steering:
	//   [ADVICE] agility-service-ttl: DNS-based load balancing or DDoS redirection needs short *service* TTLs: 300-900 s (current 3600 s)
	// DDoS scrubbing on a metered service:
	//   [ADVICE] agility-service-ttl: DNS-based load balancing or DDoS redirection needs short *service* TTLs: 300-900 s (current 3600 s)
	//   [INFO] metered-cost: metered DNS: this configuration yields ~1 authoritative queries/hour per busy resolver (hit rate 99%); longer TTLs cut the bill
	// registry:
	//   [INFO] ok: configuration follows the paper's recommendations
	// scheduled changes only:
	//   [INFO] ok: configuration follows the paper's recommendations
}
