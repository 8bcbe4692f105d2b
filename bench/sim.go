package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"dnsttl"
	"dnsttl/internal/experiments"
)

// simScale is the size of one sim_repro pass: all 30 reproductions in
// virtual time, no sockets. It is a fifth of the 1500-probe scale the
// benchmark was first sized for, so that several passes fit one run and
// every experiment is timed several times.
func simScale(seed int64) dnsttl.ExperimentScale {
	return dnsttl.ExperimentScale{Probes: 300, CrawlScale: 0.06, Resolvers: 50, Seed: seed, Workers: 0}
}

// simWarmScale is the small pass that is sim_repro's set-up: it pages in
// the code and grows the heap before the first timed pass.
func simWarmScale(seed int64) dnsttl.ExperimentScale {
	return dnsttl.ExperimentScale{Probes: 40, CrawlScale: 0.01, Resolvers: 10, Seed: seed, Workers: 0}
}

// wallTimedMetric marks the report (planet-scale) whose text prints the wall
// time it took, and so cannot be part of a digest of results.
const wallTimedMetric = "wall_seconds"

// checkReports counts the reports that are missing or empty and digests
// the texts of the rest, the wall-timed one excepted.
func checkReports(reports []*dnsttl.Report) (failed int64, digest [sha256.Size]byte) {
	h := sha256.New()
	for _, r := range reports {
		if r == nil || r.Text == "" {
			failed++
			continue
		}
		if _, wallTimed := r.Metrics[wallTimedMetric]; wallTimed {
			continue
		}
		h.Write([]byte(r.ID))
		h.Write([]byte{0})
		h.Write([]byte(r.Text))
		h.Write([]byte{0})
	}
	h.Sum(digest[:0])
	return failed, digest
}

// simMissRatio is the simulated authoritative queries per client query at
// TTL 300 s, from the hit-rate experiment's report.
func simMissRatio(reports []*dnsttl.Report) (float64, bool) {
	for _, r := range reports {
		if r != nil {
			if hit, ok := r.Metrics["hit_rate_ttl_300"]; ok {
				return 1 - hit, true
			}
		}
	}
	return 0, false
}

// crawlSharing lists the experiments that read one shared crawl; they are
// run and timed together as the piece "crawl", as RunAllExperiments runs
// them.
var crawlSharing = map[string]bool{
	"table5": true, "figure9": true, "tables6-7": true, "table8": true, "table9": true, "parent-child": true,
}

const crawlPiece = "crawl"

// timedExperiments are the experiment IDs that are pieces of their own.
func timedExperiments() []string {
	var ids []string
	for _, id := range dnsttl.ExperimentIDs {
		if !crawlSharing[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// pieceCost is what one piece of a pass cost.
type pieceCost struct {
	wall    float64 // s
	cpuUS   float64
	reports int
}

// runPass regenerates every artifact once, as RunAllExperiments does, but
// piece by piece, so that each piece is timed on its own.
func runPass(sc dnsttl.ExperimentScale) (map[string]pieceCost, []*dnsttl.Report, error) {
	costs := map[string]pieceCost{}
	var all []*dnsttl.Report
	piece := func(name string, run func() ([]*dnsttl.Report, error)) error {
		t0, cpu0 := time.Now(), cpuTime()
		reports, err := run()
		if err != nil {
			return fmt.Errorf("sim_repro: %s: %w", name, err)
		}
		costs[name] = pieceCost{time.Since(t0).Seconds(), float64((cpuTime() - cpu0).Microseconds()), len(reports)}
		all = append(all, reports...)
		return nil
	}
	for _, id := range timedExperiments() {
		if err := piece(id, func() ([]*dnsttl.Report, error) {
			r, err := dnsttl.RunExperiment(id, sc)
			return []*dnsttl.Report{r}, err
		}); err != nil {
			return nil, nil, err
		}
	}
	err := piece(crawlPiece, func() ([]*dnsttl.Report, error) {
		w, crawl := experiments.CrawlWorld(sc.CrawlScale, sc.Seed)
		return []*dnsttl.Report{experiments.Table5(crawl), experiments.Tables6And7(w, sc.Seed),
			experiments.Table8(crawl), experiments.Table9(crawl), experiments.Figure9(crawl),
			experiments.ParentChildComparison(crawl)}, nil
	})
	return costs, all, err
}

// simRun is the timed section of sim_repro: passes repeated for the time
// budget. Every pass does the same work and interference only ever adds to
// a piece's time, so each piece is reported by its quietest run, as the
// live workloads report their quietest intervals.
type simRun struct {
	passes            int
	attempted, failed int64
	quiet             map[string]pieceCost // per piece, least wall and least CPU over the passes
	digest            [sha256.Size]byte
	missRatio         float64
	mallocs           uint64
}

func runSimPasses(o runOpts) (simRun, error) {
	sc := simScale(o.seed)
	if o.check {
		sc = simWarmScale(o.seed)
	}
	run := simRun{quiet: map[string]pieceCost{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for start := time.Now(); time.Since(start) < o.seconds; run.passes++ {
		costs, reports, err := runPass(sc)
		if err != nil {
			return run, err
		}
		failed, digest := checkReports(reports)
		if run.passes > 0 && digest != run.digest {
			return run, fmt.Errorf("sim_repro: seed %d gave report digest %x, then %x", o.seed, run.digest[:6], digest[:6])
		}
		run.digest = digest
		ratio, ok := simMissRatio(reports)
		if !ok {
			return run, fmt.Errorf("sim_repro: no report carries hit_rate_ttl_300")
		}
		run.missRatio = ratio
		run.attempted += int64(len(reports))
		run.failed += failed
		for name, c := range costs {
			if q, seen := run.quiet[name]; seen {
				c.wall, c.cpuUS = min(c.wall, q.wall), min(c.cpuUS, q.cpuUS)
			}
			run.quiet[name] = c
		}
	}
	runtime.ReadMemStats(&ms1)
	run.mallocs = ms1.Mallocs - ms0.Mallocs
	return run, nil
}

// runSim is the untraced sim_repro run. An operation is one report; a pass
// produces one per experiment.
func runSim(o runOpts) (result, error) {
	var setupTimes []float64
	for i := 0; i < o.setups(simSetups); i++ {
		t0 := time.Now()
		if _, err := dnsttl.RunAllExperiments(simWarmScale(o.seed)); err != nil {
			return result{}, fmt.Errorf("sim_repro warm-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	runtime.GC()
	run, err := runSimPasses(o)
	res := result{attempted: run.attempted, failed: run.failed, metrics: metrics{}}
	if err != nil {
		return res, err
	}
	logf("sim_repro: %d passes, report_digest %s", run.passes, hex.EncodeToString(run.digest[:]))
	var wall, cpuUS, perPass float64
	for _, c := range run.quiet {
		wall += c.wall
		cpuUS += c.cpuUS
		perPass += float64(c.reports)
	}
	res.metrics = metrics{
		"setup_s":             median(setupTimes),
		"qps":                 perPass / wall,
		"latency_p50_us":      wall * 1e6 / perPass,
		"cpu_us_per_query":    cpuUS / perPass,
		"allocs_per_query":    float64(run.mallocs) / float64(run.attempted),
		"exchanges_per_query": 1 + run.missRatio,
		"success_ratio":       float64(run.attempted-run.failed) / float64(run.attempted),
		"peak_rss_mb":         peakRSSMB(),
		"repro_s":             wall,
	}
	return res, nil
}

// traceSim reports the quietest time of every piece of a pass.
func traceSim(o runOpts) (result, error) {
	run, err := runSimPasses(o)
	res := result{attempted: run.attempted, failed: run.failed, metrics: metrics{}}
	if err != nil {
		return res, err
	}
	for name, c := range run.quiet {
		res.metrics["experiments."+name+"_s"] = c.wall
	}
	res.metrics["experiments.report_digest48"] = float64(binary.BigEndian.Uint64(run.digest[:8]) >> 16)
	return res, nil
}
