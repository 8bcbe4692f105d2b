package dnsttl

import (
	"fmt"
	"sort"

	"dnsttl/internal/experiments"
	"dnsttl/internal/zonegen"
)

// Report is one reproduced table or figure.
type Report = experiments.Report

// ExperimentScale trades fidelity for runtime. The paper-scale equivalents
// use ~15k VPs and million-entry lists; Quick is sized for interactive use
// and tests, Full for overnight reproduction runs.
type ExperimentScale struct {
	// Probes sizes the vantage-point fleets.
	Probes int
	// CrawlScale multiplies the generated list sizes (1.0 ≈ tens of
	// thousands of domains).
	CrawlScale float64
	// Resolvers sizes the passive .nl resolver population.
	Resolvers int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the worker pool of every experiment made of
	// independent cells: configuration grids (TTL points, outage steps,
	// farm sizes, planet-scale cells) and campaigns that each build their
	// own testbed (table2, figures6-8, figure10, table10, the ablations,
	// dnssec). 0 means GOMAXPROCS; 1 is serial — the cells run inline, one
	// at a time. Results are identical at any setting.
	Workers int
	// Chaos optionally replaces the canned chaos-harness scenarios with one
	// custom fault schedule in the ParseFaultSchedule grammar, e.g.
	// "outage:192.88.0.7:1200s+2400s;loss:*:0s+600s:0.5". Only the "chaos"
	// experiment reads it.
	Chaos string
}

// QuickScale is suitable for tests and demos (seconds).
func QuickScale() ExperimentScale {
	return ExperimentScale{Probes: 250, CrawlScale: 0.05, Resolvers: 250, Seed: 42}
}

// FullScale is the benchmark-grade configuration (minutes).
func FullScale() ExperimentScale {
	return ExperimentScale{Probes: 2000, CrawlScale: 1.0, Resolvers: 1500, Seed: 42}
}

// ExperimentIDs lists the runnable reproductions in paper order.
var ExperimentIDs = []string{
	"table1", "table2", "figure1a", "figure1b", "figure2", "figures3-4",
	"figures6-8", "offline", "table5", "figure9", "tables6-7",
	"table8", "table9", "figure10", "table10",
	"ablation-glue", "ablation-stale", "ablation-prefetch", "ablation-cap",
	"dnssec", "hitrate", "outage-sweep", "propagation", "parent-child",
	"farm-fragmentation", "chaos", "cache-pressure", "planet-scale",
	"push-propagation", "water-torture",
}

// RunExperiment regenerates one paper artifact. IDs are listed in
// ExperimentIDs; unknown IDs return an error.
func RunExperiment(id string, sc ExperimentScale) (*Report, error) {
	if sc.Probes <= 0 {
		sc = QuickScale()
	}
	switch id {
	case "table1":
		return experiments.Table1(experiments.NewTestbed(sc.Seed)), nil
	case "table2":
		return experiments.Table2(sc.Probes/2, sc.Workers, sc.Seed), nil
	case "figure1a":
		return experiments.Figure1UyNS(sc.Probes, sc.Seed), nil
	case "figure1b":
		return experiments.Figure1UyA(sc.Probes, sc.Seed), nil
	case "figure2":
		return experiments.Figure2GoogleCo(sc.Probes, sc.Seed), nil
	case "figures3-4":
		return experiments.NlPassive(experiments.NlPassiveConfig{
			Resolvers: sc.Resolvers, Days: 2, Seed: sc.Seed,
		}), nil
	case "figures6-8":
		return experiments.BailiwickPair(sc.Probes, sc.Workers, sc.Seed), nil
	case "offline":
		return experiments.OfflineChild(sc.Probes, sc.Seed), nil
	case "table5", "figure9", "table8", "table9", "tables6-7", "parent-child":
		w, results := experiments.CrawlWorld(sc.CrawlScale, sc.Seed)
		switch id {
		case "table5":
			return experiments.Table5(results), nil
		case "figure9":
			return experiments.Figure9(results), nil
		case "table8":
			return experiments.Table8(results), nil
		case "table9":
			return experiments.Table9(results), nil
		case "parent-child":
			return experiments.ParentChildComparison(results), nil
		default:
			return experiments.Tables6And7(w, sc.Seed), nil
		}
	case "figure10":
		return experiments.Figure10(sc.Probes, sc.Workers, sc.Seed), nil
	case "table10":
		return experiments.Table10Figure11(sc.Probes, sc.Workers, sc.Seed), nil
	case "ablation-glue":
		return experiments.AblationGlueCoupling(sc.Probes/2, sc.Workers, sc.Seed), nil
	case "ablation-stale":
		return experiments.AblationServeStale(sc.Probes/2, sc.Workers, sc.Seed), nil
	case "ablation-prefetch":
		return experiments.AblationPrefetch(sc.Probes/2, sc.Workers, sc.Seed), nil
	case "ablation-cap":
		return experiments.AblationCapStyle(sc.Workers, sc.Seed), nil
	case "dnssec":
		return experiments.ValidationCentricity(sc.Probes/2, sc.Workers, sc.Seed), nil
	case "hitrate":
		return experiments.HitRateVsTTL(sc.Probes*40, sc.Workers, sc.Seed), nil
	case "outage-sweep":
		return experiments.OutageSweep(sc.Probes/3, sc.Workers, sc.Seed), nil
	case "propagation":
		return experiments.PropagationSweep(sc.Probes/3, sc.Workers, sc.Seed), nil
	case "farm-fragmentation":
		return experiments.FarmFragmentation(sc.Probes*20, sc.Workers, sc.Seed), nil
	case "chaos":
		return experiments.ChaosExperiment(max(sc.Probes/40, 2), sc.Workers, sc.Seed, sc.Chaos), nil
	case "cache-pressure":
		return experiments.CachePressure(sc.Probes*16, sc.Workers, sc.Seed), nil
	case "planet-scale":
		// Fully closed-form: the size knobs don't apply, and there is no
		// randomness to seed.
		return experiments.PlanetScale(sc.Workers), nil
	case "push-propagation":
		return experiments.PushExperiment(max(sc.Probes/80, 2), sc.Workers, sc.Seed), nil
	case "water-torture":
		return experiments.WaterTorture(sc.Probes*4, sc.Workers, sc.Seed), nil
	}
	return nil, fmt.Errorf("dnsttl: unknown experiment %q (known: %v)", id, ExperimentIDs)
}

// RunAllExperiments regenerates every artifact, sharing one crawl.
func RunAllExperiments(sc ExperimentScale) ([]*Report, error) {
	if sc.Probes <= 0 {
		sc = QuickScale()
	}
	var out []*Report
	for _, id := range []string{"table1", "table2", "figure1a", "figure1b", "figure2", "figures3-4", "figures6-8", "offline"} {
		r, err := RunExperiment(id, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	w, results := experiments.CrawlWorld(sc.CrawlScale, sc.Seed)
	out = append(out,
		experiments.Table5(results),
		experiments.Tables6And7(w, sc.Seed),
		experiments.Table8(results),
		experiments.Table9(results),
		experiments.Figure9(results),
		experiments.ParentChildComparison(results),
	)
	for _, id := range []string{
		"figure10", "table10",
		"ablation-glue", "ablation-stale", "ablation-prefetch", "ablation-cap",
		"dnssec", "hitrate", "outage-sweep", "propagation",
		"farm-fragmentation", "chaos", "cache-pressure", "planet-scale",
		"push-propagation", "water-torture",
	} {
		r, err := RunExperiment(id, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// CrawlLists names the five generated domain populations.
func CrawlLists() []string {
	out := make([]string, 0, len(zonegen.AllLists))
	for _, l := range zonegen.AllLists {
		out = append(out, string(l))
	}
	sort.Strings(out)
	return out
}
