package dnsttl

import (
	"reflect"
	"strings"
	"testing"
)

// TestExperimentsDeterministic is the reproducibility contract stated in
// README and DESIGN: the same seed regenerates byte-identical reports, for
// a representative slice of the experiment registry.
func TestExperimentsDeterministic(t *testing.T) {
	sc := QuickScale()
	sc.Probes = 120
	sc.CrawlScale = 0.03
	sc.Resolvers = 80
	for _, id := range []string{"table1", "figure1a", "figures6-8", "table5", "figure10", "outage-sweep"} {
		id := id
		t.Run(id, func(t *testing.T) {
			a, err := RunExperiment(id, sc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunExperiment(id, sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Metrics, b.Metrics) {
				t.Errorf("metrics differ between identical runs:\n%v\nvs\n%v", a.Metrics, b.Metrics)
			}
			if a.Text != b.Text {
				t.Errorf("rendered text differs between identical runs")
			}
		})
	}
}

// TestParallelSweepDeterministic is the parallel half of the contract: for
// every experiment that fans cells out through Sweep — a configuration grid
// or a set of independent campaigns — a serial run (Workers=1) and a heavily
// parallel run (Workers=8) must produce byte-identical reports. This holds
// because each sweep cell builds its own seeded Network/Clock and simnet
// randomness is sharded per (src, dst) flow with order-independent seeds.
// Tier-1 runs it under -race too, which is the check that testbeds alive at
// once share nothing mutable.
func TestParallelSweepDeterministic(t *testing.T) {
	sc := QuickScale()
	sc.Probes = 90
	for _, id := range []string{
		"outage-sweep", "propagation", "hitrate", "farm-fragmentation",
		"table2", "figures6-8", "figure10", "table10",
		"ablation-glue", "ablation-stale", "ablation-prefetch", "ablation-cap",
		"dnssec", "planet-scale",
	} {
		id := id
		t.Run(id, func(t *testing.T) {
			serial, parallel := sc, sc
			serial.Workers = 1
			parallel.Workers = 8
			a, err := RunExperiment(id, serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunExperiment(id, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if id == "planet-scale" {
				maskWallClock(t, a)
				maskWallClock(t, b)
			}
			if !reflect.DeepEqual(a.Metrics, b.Metrics) {
				t.Errorf("metrics differ between serial and parallel runs:\n%v\nvs\n%v", a.Metrics, b.Metrics)
			}
			if a.Text != b.Text {
				t.Errorf("rendered text differs between serial and parallel runs:\n%s\nvs\n%s", a.Text, b.Text)
			}
		})
	}
}

// maskWallClock removes what the planet-scale report says about its own
// running time — the two wall-clock metrics and the closing clause of the
// text — exactly what testdata/planet_golden.json leaves unpinned.
func maskWallClock(t *testing.T, r *Report) {
	t.Helper()
	delete(r.Metrics, "wall_seconds")
	delete(r.Metrics, "throughput_user_seconds_per_wall_second")
	text, _, ok := strings.Cut(r.Text, "; total wall")
	if !ok {
		t.Fatalf("report text has no wall-clock clause to cut:\n%s", r.Text)
	}
	r.Text = text
}

// TestExperimentsSeedSensitive: different seeds actually change the
// stochastic experiments (guarding against accidentally ignored seeds).
func TestExperimentsSeedSensitive(t *testing.T) {
	sc := QuickScale()
	sc.Probes = 120
	a, err := RunExperiment("figure1a", sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 4242
	b, err := RunExperiment("figure1a", sc)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("different seeds produced identical metrics — seed unused?")
	}
}
