package dnsttl

import (
	"fmt"
	"sort"

	"dnsttl/internal/crawler"
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

// crawl is one crawl of the synthetic Internet (experiments.CrawlWorld),
// which the §5 experiments read and RunAllExperiments shares among them.
type crawl struct {
	world   *zonegen.World
	results map[zonegen.List]*crawler.Result
}

func newCrawl(sc ExperimentScale) *crawl {
	w, results := experiments.CrawlWorld(sc.CrawlScale, sc.Seed)
	return &crawl{w, results}
}

// experimentTable is every runnable reproduction in paper order, each with
// its mapping from ExperimentScale onto the experiment's own size knobs.
// needsCrawl marks the readers of the shared crawl; the rest get nil.
var experimentTable = []struct {
	id         string
	needsCrawl bool
	run        func(sc ExperimentScale, c *crawl) *Report
}{
	{"table1", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.Table1(experiments.NewTestbed(sc.Seed))
	}},
	{"table2", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.Table2(sc.Probes/2, sc.Workers, sc.Seed)
	}},
	{"figure1a", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.Figure1UyNS(sc.Probes, sc.Seed)
	}},
	{"figure1b", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.Figure1UyA(sc.Probes, sc.Seed)
	}},
	{"figure2", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.Figure2GoogleCo(sc.Probes, sc.Seed)
	}},
	{"figures3-4", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.NlPassive(experiments.NlPassiveConfig{Resolvers: sc.Resolvers, Days: 2, Seed: sc.Seed})
	}},
	{"figures6-8", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.BailiwickPair(sc.Probes, sc.Workers, sc.Seed)
	}},
	{"offline", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.OfflineChild(sc.Probes, sc.Seed)
	}},
	{"table5", true, func(_ ExperimentScale, c *crawl) *Report {
		return experiments.Table5(c.results)
	}},
	{"figure9", true, func(_ ExperimentScale, c *crawl) *Report {
		return experiments.Figure9(c.results)
	}},
	{"tables6-7", true, func(sc ExperimentScale, c *crawl) *Report {
		return experiments.Tables6And7(c.world, sc.Seed)
	}},
	{"table8", true, func(_ ExperimentScale, c *crawl) *Report {
		return experiments.Table8(c.results)
	}},
	{"table9", true, func(_ ExperimentScale, c *crawl) *Report {
		return experiments.Table9(c.results)
	}},
	{"figure10", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.Figure10(sc.Probes, sc.Workers, sc.Seed)
	}},
	{"table10", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.Table10Figure11(sc.Probes, sc.Workers, sc.Seed)
	}},
	{"ablation-glue", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.AblationGlueCoupling(sc.Probes/2, sc.Workers, sc.Seed)
	}},
	{"ablation-stale", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.AblationServeStale(sc.Probes/2, sc.Workers, sc.Seed)
	}},
	{"ablation-prefetch", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.AblationPrefetch(sc.Probes/2, sc.Workers, sc.Seed)
	}},
	{"ablation-cap", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.AblationCapStyle(sc.Workers, sc.Seed)
	}},
	{"dnssec", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.ValidationCentricity(sc.Probes/2, sc.Workers, sc.Seed)
	}},
	{"hitrate", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.HitRateVsTTL(sc.Probes*40, sc.Workers, sc.Seed)
	}},
	{"outage-sweep", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.OutageSweep(sc.Probes/3, sc.Workers, sc.Seed)
	}},
	{"propagation", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.PropagationSweep(sc.Probes/3, sc.Workers, sc.Seed)
	}},
	{"parent-child", true, func(_ ExperimentScale, c *crawl) *Report {
		return experiments.ParentChildComparison(c.results)
	}},
	{"farm-fragmentation", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.FarmFragmentation(sc.Probes*20, sc.Workers, sc.Seed)
	}},
	{"chaos", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.ChaosExperiment(max(sc.Probes/40, 2), sc.Workers, sc.Seed, sc.Chaos)
	}},
	{"cache-pressure", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.CachePressure(sc.Probes*16, sc.Workers, sc.Seed)
	}},
	// Fully closed-form: the size knobs don't apply, and there is no
	// randomness to seed.
	{"planet-scale", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.PlanetScale(sc.Workers)
	}},
	{"push-propagation", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.PushExperiment(max(sc.Probes/80, 2), sc.Workers, sc.Seed)
	}},
	{"water-torture", false, func(sc ExperimentScale, _ *crawl) *Report {
		return experiments.WaterTorture(sc.Probes*4, sc.Workers, sc.Seed)
	}},
}

// ExperimentIDs lists the runnable reproductions in paper order.
var ExperimentIDs = func() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}()

// RunExperiment regenerates one paper artifact. IDs are listed in
// ExperimentIDs; unknown IDs return an error.
func RunExperiment(id string, sc ExperimentScale) (*Report, error) {
	if sc.Probes <= 0 {
		sc = QuickScale()
	}
	for _, e := range experimentTable {
		if e.id == id {
			var c *crawl
			if e.needsCrawl {
				c = newCrawl(sc)
			}
			return e.run(sc, c), nil
		}
	}
	return nil, fmt.Errorf("dnsttl: unknown experiment %q (known: %v)", id, ExperimentIDs)
}

// RunAllExperiments regenerates every artifact in ExperimentIDs order,
// sharing one crawl.
func RunAllExperiments(sc ExperimentScale) ([]*Report, error) {
	if sc.Probes <= 0 {
		sc = QuickScale()
	}
	var c *crawl
	out := make([]*Report, 0, len(experimentTable))
	for _, e := range experimentTable {
		if e.needsCrawl && c == nil {
			c = newCrawl(sc)
		}
		out = append(out, e.run(sc, c))
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
