package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites the goldens instead of comparing against them:
//
//	go test ./internal/experiments/ -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenTiers are the byte-pinned tiers: each renders, at a worker count
// (0 = the default), exactly the bytes testdata/<tier>_golden.json holds.
// What a drift in each means:
var goldenTiers = map[string]func(t *testing.T, workers int) []byte{
	// Per-round outcomes of the canned fault schedules — answered, stale,
	// queries, timeouts, retries, hedges: retry/backoff/hedging, SRTT
	// ordering or serve-stale semantics changed.
	"chaos": func(_ *testing.T, workers int) []byte {
		return ChaosRun(chaosProbes, workers, chaosSeed).JSON()
	},
	// Per-cell hits, evictions, admission rejects, prefetches,
	// authoritative queries, resident bytes: byte accounting, eviction
	// order, admission or refresh-ahead changed.
	"pressure": func(_ *testing.T, workers int) []byte {
		return PressureRun(pressureTestQueries, workers, pressureTestSeed).JSON()
	},
	// Every propagation cell — polling, push, push+prefetch, farm
	// topologies, dropped-notify chaos: the feed, subscriber, purge,
	// serve-stale gating or fault semantics changed.
	"push": func(_ *testing.T, workers int) []byte {
		return PushRun(pushClients, workers, pushSeed).JSON()
	},
	// Every water-torture cell — attack outcomes, authoritative
	// rx/full/slip/drop, honest hit rates, RRL and edge counters: the
	// middleware pipeline, the farm's per-frontend pipelines, the mixed
	// workload interleave or the limiters' bucket arithmetic changed.
	"abuse": func(_ *testing.T, workers int) []byte {
		return WaterTortureRun(abuseQueries, workers, abuseSeed).JSON()
	},
	// The compiled tier's metrics at full precision plus its table text.
	// The closed-form engine has no seed, so a drift is a change in the
	// model or in the order its sums associate.
	"planet": func(t *testing.T, workers int) []byte {
		return planetGoldenJSON(t, PlanetScale(workers))
	},
}

// checkGolden renders the tier at the worker count and compares it byte
// for byte against its golden — or, under -update, rewrites the golden.
func checkGolden(t *testing.T, tier string, workers int) {
	t.Helper()
	path := filepath.Join("testdata", tier+"_golden.json")
	got := goldenTiers[tier](t, workers)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s tier at %d workers drifted from golden %s.\nRegenerate with -update if the change is intentional.\ngot:\n%s",
			tier, workers, path, got)
	}
}

// checkWorkerInvariant holds the tier to its golden at each worker count:
// cells share no state and each builds its own seeded world, so neither
// fan-out order nor a repeated run can reach the results.
func checkWorkerInvariant(t *testing.T, tier string, workers ...int) {
	t.Helper()
	if *update {
		t.Skip("golden is being rewritten")
	}
	for _, w := range workers {
		checkGolden(t, tier, w)
	}
}

func TestChaosGolden(t *testing.T)       { checkGolden(t, "chaos", 0) }
func TestPressureGolden(t *testing.T)    { checkGolden(t, "pressure", 0) }
func TestPushGolden(t *testing.T)        { checkGolden(t, "push", 0) }
func TestAbuseGolden(t *testing.T)       { checkGolden(t, "abuse", 0) }
func TestPlanetScaleGolden(t *testing.T) { checkGolden(t, "planet", 0) }

func TestChaosDeterministic(t *testing.T)    { checkWorkerInvariant(t, "chaos", 1, 4, 8) }
func TestPressureDeterministic(t *testing.T) { checkWorkerInvariant(t, "pressure", 1, 8) }
func TestPushDeterministic(t *testing.T)     { checkWorkerInvariant(t, "push", 1, 4, 8) }
func TestAbuseDeterministic(t *testing.T)    { checkWorkerInvariant(t, "abuse", 1, 4, 8) }

// Tier-1 runs this one under -race as well: the band table the planet
// cells share is read-only.
func TestPlanetScaleWorkerInvariant(t *testing.T) { checkWorkerInvariant(t, "planet", 1, 4) }
