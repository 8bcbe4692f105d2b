package resolver_test

import (
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/farm"
	"dnsttl/internal/resolver"
)

// TestFarmFragmentation reproduces the §4.4 observation: behind a service
// whose frontends keep independent caches, a client can see a mix of old
// and new content after a renumbering, because each query lands on a
// frontend whose cache is in a different state.
func TestFarmFragmentation(t *testing.T) {
	net, clock, root, renumber := resolver.RenumberWorld(t)
	// Four parent-centric frontends (the OpenDNS case), a random one per query.
	pol := resolver.DefaultPolicy()
	pol.Centricity = resolver.ParentCentric
	f := farm.New(farm.Config{Frontends: 4, Policy: pol, Seed: 3},
		netip.MustParseAddr("172.30.1.1"), net, clock, []netip.Addr{root})

	name := dnswire.NewName("probe.sub.cachetest.net")
	// Warm only two of the four frontends before the renumber.
	warmed := func() (n int) {
		for _, fe := range f.Stats().PerFrontend {
			if fe.Upstream > 0 {
				n++
			}
		}
		return n
	}
	for i := 0; warmed() < 2; i++ {
		if _, err := f.Resolve(name, dnswire.TypeAAAA); err != nil || i == 100 {
			t.Fatalf("query %d warmed %d frontends: %v", i, warmed(), err)
		}
	}

	// Renumber; warmed frontends hold the old glue (7200 s from the
	// cachetest.net referral), cold ones will learn the new address.
	renumber()
	clock.Advance(2 * time.Minute)

	answers := map[string]bool{}
	for i := 0; i < 40; i++ {
		res, err := f.Resolve(name, dnswire.TypeAAAA)
		if err != nil || len(res.Msg.Answer) == 0 {
			continue
		}
		answers[res.Msg.Answer[len(res.Msg.Answer)-1].Data.String()] = true
		clock.Advance(90 * time.Second) // probe AAAA TTL is 60 s
	}
	if len(answers) < 2 {
		t.Errorf("expected mixed old/new answers from a fragmented farm, got %v", answers)
	}
}
