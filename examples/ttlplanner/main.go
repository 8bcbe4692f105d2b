// The ttlplanner example is the operator-facing payoff of the paper: sweep
// candidate TTLs for a zone, estimate cache hit rate, client latency and
// authoritative load for each (using the Jung et al. cache model the paper
// builds on), and print the §6.3 recommendations for the chosen scenario.
//
// Flags model the §6.1 trade-offs:
//
//	ttlplanner -loadbalancing        # CDN-style steering
//	ttlplanner -scrubbing -metered   # DDoS redirection on a metered service
//	ttlplanner -planned              # every change is scheduled ahead
package main

import (
	"flag"
	"fmt"
	"time"

	"dnsttl"
)

func main() {
	var (
		lb       = flag.Bool("loadbalancing", false, "zone steers traffic via DNS")
		scrub    = flag.Bool("scrubbing", false, "zone must redirect through a DDoS scrubber on demand")
		metered  = flag.Bool("metered", false, "DNS service bills per query")
		registry = flag.Bool("registry", false, "zone hosts public delegations")
		planned  = flag.Bool("planned", false, "changes are scheduled: TTLs can drop just before one and rise after")
		qps      = flag.Float64("qps", 0.02, "client demand per resolver (queries/second)")
	)
	flag.Parse()

	w := dnsttl.DefaultWorkload()
	w.QueriesPerSecond = *qps
	pop := dnsttl.MeasuredPopulation()

	fmt.Printf("%-10s %-10s %-12s %-14s\n", "TTL", "hit rate", "mean latency", "auth q/hour")
	for _, ttl := range []uint32{0, 60, 300, 900, 3600, 14400, 86400} {
		cfg := dnsttl.ZoneConfig{ServiceTTL: ttl, ChildNSTTL: 86400, ParentNSTTL: 86400,
			ChildAddrTTL: 86400, Bailiwick: dnsttl.BailiwickOutOnly}
		est := dnsttl.Estimate(dnsttl.EffectiveServiceTTL(cfg, pop), w)
		fmt.Printf("%-10d %-10.1f%% %-12v %-14.1f\n",
			ttl, est.HitRate*100, est.MeanLatency.Round(100*time.Microsecond), est.AuthQueriesPerHour)
	}

	scenario := dnsttl.Scenario{
		DNSLoadBalancing:       *lb,
		DDoSScrubbing:          *scrub,
		MeteredDNS:             *metered,
		RegistryOperator:       *registry,
		PlannedMaintenanceOnly: *planned,
	}
	cfg := dnsttl.ZoneConfig{
		Domain:      dnsttl.NewName("example.org"),
		ParentNSTTL: 172800, ChildNSTTL: 3600,
		ChildAddrTTL: 3600, Bailiwick: dnsttl.BailiwickOutOnly,
		ServiceTTL: 300,
	}
	fmt.Printf("\nRecommendations for %s under this scenario:\n", cfg.Domain)
	for _, rec := range dnsttl.Advise(cfg, scenario) {
		fmt.Println(" ", rec)
	}
}
