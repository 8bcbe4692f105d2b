// Command bench is the repository's benchmark: three live workloads over
// loopback UDP against the resolver and authoritative server built as the
// daemons build them, and the simulation suite. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// result is what one run of one workload reports.
type result struct {
	attempted, failed int64
	metrics           metrics
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// jsonLine renders a result as the contract's last line of output.
func (r result) jsonLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for name, v := range r.metrics {
		out.Metrics[name] = value{v, unitOf(name)}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN or Inf can fail here, and run rejects those
	}
	return string(b)
}

// runOpts are the arguments of one run.
type runOpts struct {
	seed    int64
	seconds time.Duration
	// check shrinks the run to a hundredth of its fixed counts and one
	// set-up: enough to validate every reply path, too little to time.
	check bool
}

// setups is n, or 1 for a check.
func (o runOpts) setups(n int) int {
	if o.check {
		return 1
	}
	return n
}

func (o runOpts) window(w *workload) int64 {
	if o.check {
		return w.window / 100
	}
	return w.window
}

// runWorkload runs one workload once. Untraced it reports every end-to-end
// metric; traced it reports every per-layer metric: the layer table, then
// the workload's traced run.
func runWorkload(name string, trace bool, o runOpts) (result, error) {
	w := findLive(name)
	if w == nil && name != simWorkload {
		return result{}, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
	}
	if !trace {
		if w == nil {
			return runSim(o)
		}
		return runLive(w, o)
	}
	var table metrics
	if !o.check {
		var err error
		if table, err = layerTable(); err != nil {
			return result{}, fmt.Errorf("layer table: %w", err)
		}
	}
	var res result
	var err error
	if w == nil {
		res, err = traceSim(o)
	} else {
		res, err = traceLive(w, o)
	}
	if err != nil {
		return res, err
	}
	for _, d := range perLayer {
		if v, ok := table[d.name]; ok {
			res.metrics[d.name] = v
		} else if _, ok := res.metrics[d.name]; !ok {
			res.metrics[d.name] = 0
		}
	}
	return res, nil
}

// printTable lists a result's metrics by name with their units, in the
// catalogue's order.
func printTable(workload string, r result) {
	fmt.Printf("%s: attempted %d, failed %d\n", workload, r.attempted, r.failed)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if v, ok := r.metrics[d.name]; ok {
				fmt.Printf("  %-42s %16.6g %s\n", d.name, v, d.unit)
			}
		}
	}
}

// findManifest reads BENCHMARK.json from the working directory, or from
// its parent when the program was started inside bench/.
func findManifest() (*manifest, error) {
	m, err := readManifest("BENCHMARK.json")
	if os.IsNotExist(err) {
		m, err = readManifest(filepath.Join("..", "BENCHMARK.json"))
	}
	return m, err
}

func fatal(err error) {
	logf("%v", err)
	os.Exit(1)
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload once and print its result line; without it, run the set")
		seed     = flag.Int64("seed", 1, "seed of the query stream and of the simulations")
		seconds  = flag.Int("seconds", 10, "length of the timed section")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics (layer table and traced run); unset: 0 for one workload, both for the set")
		repeat   = flag.Int("repeat", 1, "set mode: runs of every workload, each a fresh process with the next seed")
		sameSeed = flag.Bool("same-seed", false, "set mode: give every run the same seed and check that the deterministic counters repeat")
		only     = flag.String("workloads", "", "set mode: comma-separated workloads (default all)")
		save     = flag.String("o", "", "set mode: also write the set to this JSON file, for -compare")
		compare  = flag.Bool("compare", false, "compare the medians of two saved sets: -compare a.json b.json")
		check    = flag.Bool("check", false, "run every workload, untraced and traced, at a hundredth of its size and fail on any rejected reply")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two set files"))
		}
		m, err := findManifest()
		if err != nil {
			fatal(err)
		}
		a, err := loadSet(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := loadSet(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !compareSets(a, b, m) {
			os.Exit(1)
		}
	case *check:
		for _, w := range workloadNames {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(w, traced, runOpts{seed: *seed, seconds: time.Second, check: true})
				if err == nil && res.failed > 0 {
					err = fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
				}
				if err != nil {
					fatal(fmt.Errorf("check %s (%s): %w", w, modeName(traced), err))
				}
				fmt.Printf("check %s (%s): %d operations, all correct\n", w, modeName(traced), res.attempted)
			}
		}
		if _, err := layerTable(); err != nil {
			fatal(fmt.Errorf("check layer table: %w", err))
		}
		fmt.Println("check layer table: every row ran")
	case *name != "":
		res, err := runWorkload(*name, *trace == 1, runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second})
		if err != nil {
			fatal(err)
		}
		printTable(*name, res)
		fmt.Println(res.jsonLine())
	default:
		m, err := findManifest()
		if err != nil {
			fatal(err)
		}
		modes := []bool{false, true}
		if *trace >= 0 {
			modes = []bool{*trace == 1}
		}
		set, err := collect(splitList(*only), modes, *repeat, *seed, *sameSeed, *seconds)
		if err != nil {
			fatal(err)
		}
		ok := set.report(m)
		if *sameSeed {
			ok = set.checkDeterminism() && ok
		}
		if *save != "" {
			if err := set.save(*save); err != nil {
				fatal(err)
			}
		}
		if !ok {
			os.Exit(1)
		}
	}
}
