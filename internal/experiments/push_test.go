package experiments

import "testing"

const (
	pushClients = 3
	pushSeed    = 42
)

// TestPushOutcomes pins the story the golden bytes must tell, so a
// legitimate -update can't silently regress the propagation semantics.
func TestPushOutcomes(t *testing.T) {
	rep := PushRun(pushClients, 0, pushSeed)
	byName := map[string]PushResult{}
	for _, r := range rep.Results {
		byName[r.Scenario.Name] = r
	}
	poll60 := byName["poll-ttl60"]
	poll3600 := byName["poll-ttl3600"]
	pushCell := byName["push-ttl3600"]
	prefetch := byName["push-prefetch-ttl3600"]
	private := byName["push-farm16-private"]
	shared := byName["push-farm16-shared"]
	dropped := byName["push-dropped-notify"]

	// The acceptance headline: a long TTL with push is at least as fresh as
	// TTL=60 polling, at >= 5x less authoritative load.
	if pushCell.Totals.StaleSeconds > poll60.Totals.StaleSeconds {
		t.Errorf("push-ttl3600 staleness %d > poll-ttl60 %d",
			pushCell.Totals.StaleSeconds, poll60.Totals.StaleSeconds)
	}
	if poll60.Totals.AuthQueries < 5*pushCell.Totals.AuthQueries {
		t.Errorf("auth query ratio %d/%d < 5x",
			poll60.Totals.AuthQueries, pushCell.Totals.AuthQueries)
	}

	// Long-TTL polling is the stale straw man: each update leaves the fleet
	// stale until TTL expiry, far beyond poll-ttl60's one-minute windows.
	if poll3600.Totals.StaleSeconds <= poll60.Totals.StaleSeconds {
		t.Errorf("poll-ttl3600 staleness %d should exceed poll-ttl60's %d",
			poll3600.Totals.StaleSeconds, poll60.Totals.StaleSeconds)
	}

	// Healthy push serves zero stale answers: every update's notify lands
	// before the next probe round.
	for _, name := range []string{"push-ttl3600", "push-prefetch-ttl3600", "push-fastchurn",
		"push-farm16-private", "push-farm16-shared"} {
		if st := byName[name].Totals.StaleSeconds; st != 0 {
			t.Errorf("%s served %d stale-seconds under a healthy push channel", name, st)
		}
		if byName[name].Totals.NotifySent == 0 || byName[name].Totals.Purged == 0 {
			t.Errorf("%s: push plane idle (notifies=%d purged=%d)",
				name, byName[name].Totals.NotifySent, byName[name].Totals.Purged)
		}
	}

	// Prefetch converts post-purge client misses into subscriber refetches.
	if prefetch.Totals.Refetches == 0 {
		t.Error("push-prefetch-ttl3600: no refetches recorded")
	}
	if prefetch.Totals.Misses >= pushCell.Totals.Misses {
		t.Errorf("prefetch misses %d not below plain push %d",
			prefetch.Totals.Misses, pushCell.Totals.Misses)
	}

	// Fragmentation survives the push plane: 16 private caches each pay the
	// refill, one shared cache pays once.
	if private.Totals.Misses <= shared.Totals.Misses {
		t.Errorf("farm16 private misses %d not above shared %d",
			private.Totals.Misses, shared.Totals.Misses)
	}

	// Dropped-notify chaos: the cut channel forces real staleness, but the
	// 300 s poll fallback bounds it — one update, <= PollSeconds per client —
	// and the recovery shows up as a poll-triggered pull.
	if dropped.Totals.StaleSeconds == 0 {
		t.Error("push-dropped-notify: outage produced no staleness (fault never bit)")
	}
	bound := pushClients * dropped.Scenario.PollSeconds
	if dropped.Totals.StaleSeconds > bound {
		t.Errorf("push-dropped-notify staleness %d exceeds poll-fallback bound %d",
			dropped.Totals.StaleSeconds, bound)
	}
	if dropped.Totals.StaleSeconds >= poll3600.Totals.StaleSeconds {
		t.Errorf("push-dropped-notify staleness %d not below poll-ttl3600's %d",
			dropped.Totals.StaleSeconds, poll3600.Totals.StaleSeconds)
	}
	if dropped.Totals.PollRecoveries == 0 {
		t.Error("push-dropped-notify: no poll recoveries; fallback never fired")
	}
}
