package experiments

import "testing"

const (
	chaosProbes = 6
	chaosSeed   = 42
)

// TestChaosOutcomes asserts the semantic shape of each scenario — the
// golden pins exact bytes; this pins the story those bytes must tell, so a
// legitimate -update can't silently regress the behavior.
func TestChaosOutcomes(t *testing.T) {
	rep := ChaosRun(chaosProbes, 0, chaosSeed)
	byName := map[string]ChaosResult{}
	for _, r := range rep.Results {
		byName[r.Scenario] = r
	}
	// Fault windows arm at round 2 and clear at round 6.
	window := func(r ChaosResult) []ChaosRound { return r.Rounds[2:6] }
	clean := func(r ChaosResult) []ChaosRound {
		return append(append([]ChaosRound(nil), r.Rounds[:2]...), r.Rounds[6:]...)
	}

	base := byName["baseline"]
	for _, rd := range base.Rounds {
		if rd.Answered != chaosProbes || rd.Stale != 0 || rd.Timeouts != 0 ||
			rd.Retries != 0 || rd.Hedges != 0 {
			t.Errorf("baseline round %d not clean: %+v", rd.Round, rd)
		}
	}

	// Hard outage: every in-window answer is stale, with exactly one timed
	// out probe query each round (single-shot legacy resolver).
	for _, rd := range window(byName["outage-stale"]) {
		if rd.Answered != chaosProbes || rd.Stale != chaosProbes || rd.Timeouts != chaosProbes {
			t.Errorf("outage-stale round %d: %+v, want all stale", rd.Round, rd)
		}
	}
	for _, rd := range clean(byName["outage-stale"]) {
		if rd.Stale != 0 {
			t.Errorf("outage-stale round %d stale outside the window: %+v", rd.Round, rd)
		}
	}

	// Loss burst + retries: retries fire in-window and rescue most rounds
	// without any stale answers.
	lossRetries, lossAnswered := 0, 0
	for _, rd := range window(byName["loss-retry"]) {
		lossRetries += rd.Retries
		lossAnswered += rd.Answered
		if rd.Stale != 0 {
			t.Errorf("loss-retry round %d used stale: %+v", rd.Round, rd)
		}
	}
	if lossRetries == 0 {
		t.Error("loss-retry: no retries fired during the loss window")
	}
	if lossAnswered < 4*chaosProbes-4 {
		t.Errorf("loss-retry answered %d/%d in-window, want near-full rescue", lossAnswered, 4*chaosProbes)
	}

	// Latency spike + hedging: hedges fire and every round stays answered.
	hedges := 0
	for _, rd := range byName["spike-hedge"].Rounds {
		hedges += rd.Hedges
		if rd.Answered != chaosProbes {
			t.Errorf("spike-hedge round %d dropped answers: %+v", rd.Round, rd)
		}
		if rd.Retries != 0 {
			t.Errorf("spike-hedge round %d retried (%+v); hedging should carry it", rd.Round, rd)
		}
	}
	if hedges == 0 {
		t.Error("spike-hedge: no hedged queries fired")
	}

	// SERVFAIL storm: failure rcodes are retryable under an active policy,
	// so every probe burns its full 3-attempt budget (2 retries each) and
	// then serve-stale answers anyway.
	for _, rd := range window(byName["servfail-storm"]) {
		if rd.Answered != chaosProbes || rd.Stale != chaosProbes {
			t.Errorf("servfail-storm round %d: %+v, want all stale-answered", rd.Round, rd)
		}
		if rd.Retries != 2*chaosProbes {
			t.Errorf("servfail-storm round %d retries = %d, want %d (full budget)", rd.Round, rd.Retries, 2*chaosProbes)
		}
		if rd.Timeouts != 0 {
			t.Errorf("servfail-storm round %d has timeouts: %+v (SERVFAIL is instant)", rd.Round, rd)
		}
	}

	// Flapping server + growing backoff: retries ride the accumulated
	// virtual latency forward through the schedule, so every round is
	// answered without stale, and down-phase rounds show the retry work.
	flapRetries := 0
	for _, rd := range byName["flap-backoff"].Rounds {
		flapRetries += rd.Retries
		if rd.Answered != chaosProbes || rd.Stale != 0 {
			t.Errorf("flap-backoff round %d: %+v, want fresh answers every round", rd.Round, rd)
		}
	}
	if flapRetries == 0 {
		t.Error("flap-backoff: no retries fired; the flap never bit")
	}
}
