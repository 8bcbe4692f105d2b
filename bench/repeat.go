package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json this program reads: the metric
// lists it must report and the bound of each end-to-end metric.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runSet is the result of running workloads several times: values by
// mode ("end_to_end" or "per_layer"), workload and metric, one per run.
type runSet struct {
	Seeds  []int64                                    `json:"seeds"`
	Values map[string]map[string]map[string][]float64 `json:"values"`
}

// parseResultLine reads the contract's result line.
func parseResultLine(line []byte) (correct bool, values map[string]float64, err error) {
	var out struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(line, &out); err != nil {
		return false, nil, err
	}
	values = map[string]float64{}
	for name, v := range out.Metrics {
		values[name] = v.Value
	}
	return out.Correct, values, nil
}

// runChild runs one workload in a fresh process of this program and
// returns the metrics of its result line.
func runChild(workload string, seed int64, seconds int, trace bool) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", traceArg)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(stdout)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	correct, values, err := parseResultLine(last)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !correct {
		return nil, fmt.Errorf("%s seed %d: run reported incorrect outputs", workload, seed)
	}
	return values, nil
}

// collect runs each workload n times in each requested mode. With sameSeed
// every run uses seed; otherwise run i uses seed+i, as the driver's
// acceptance check varies it.
func collect(workloads []string, modes []bool, n int, seed int64, sameSeed bool, seconds int) (*runSet, error) {
	set := &runSet{Values: map[string]map[string]map[string][]float64{}}
	for i := 0; i < n; i++ {
		s := seed
		if !sameSeed {
			s += int64(i)
		}
		set.Seeds = append(set.Seeds, s)
	}
	for _, trace := range modes {
		mode := modeName(trace)
		set.Values[mode] = map[string]map[string][]float64{}
		for _, w := range workloads {
			set.Values[mode][w] = map[string][]float64{}
			for i, s := range set.Seeds {
				logf("%s %s run %d/%d (seed %d)", mode, w, i+1, n, s)
				values, err := runChild(w, s, seconds, trace)
				if err != nil {
					return nil, err
				}
				for name, v := range values {
					set.Values[mode][w][name] = append(set.Values[mode][w][name], v)
				}
			}
		}
	}
	return set, nil
}

func modeName(trace bool) string {
	if trace {
		return "per_layer"
	}
	return "end_to_end"
}

// quartiles are the three cut points Python's statistics.quantiles(v, n=4)
// returns (its default, exclusive method); the driver judges spread by them.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// report prints min, median, max and spread of every metric of a set, the
// end-to-end ones against their bounds. It returns false when a spread
// exceeds its bound.
func (set *runSet) report(m *manifest) bool {
	ok := true
	for _, mode := range []string{"end_to_end", "per_layer"} {
		byWorkload := set.Values[mode]
		if byWorkload == nil {
			continue
		}
		for _, w := range workloadNames {
			values := byWorkload[w]
			if values == nil {
				continue
			}
			fmt.Printf("%s / %s, %d runs (seeds %v)\n", w, mode, len(set.Seeds), set.Seeds)
			fmt.Printf("  %-42s %14s %14s %14s %8s %8s\n", "metric", "min", "median", "max", "spread", "bound")
			if mode == "end_to_end" {
				for _, e := range m.EndToEnd {
					v := values[e.Name]
					if len(v) == 0 {
						continue
					}
					sp, verdict := spread(v), ""
					switch {
					case e.Name == "setup_s":
						verdict = "(spread not judged)"
					case sp > e.Bound:
						verdict, ok = "WIDER THAN BOUND", false
					case sp > e.Bound/3:
						verdict = "above a third of the bound"
					}
					printStats(e.Name+" ["+e.Unit+"]", v, fmt.Sprintf("%8.4f %s", e.Bound, verdict))
				}
				continue
			}
			for _, d := range perLayer {
				if v := values[d.name]; len(v) > 0 {
					printStats(d.name+" ["+d.unit+"]", v, "")
				}
			}
		}
	}
	return ok
}

func printStats(label string, v []float64, tail string) {
	_, med, _ := quartiles(v)
	fmt.Printf("  %-42s %14.6g %14.6g %14.6g %8.4f %s\n", label, slices.Min(v), med, slices.Max(v), spread(v), tail)
}

// checkDeterminism holds the counters that must repeat across runs of one
// seed: on ttl_mix_udp the cache outcome is a function of the seed alone,
// and on hit_udp the servers allocate the same for every query.
func (set *runSet) checkDeterminism() bool {
	ok := true
	check := func(mode, w, metric string, tolerance float64, relative bool) {
		v := set.Values[mode][w][metric]
		if len(v) < 2 {
			return
		}
		diff := slices.Max(v) - slices.Min(v)
		if relative {
			diff /= slices.Min(v)
		}
		verdict := "repeats"
		if diff > tolerance {
			verdict, ok = "DOES NOT REPEAT", false
		}
		fmt.Printf("  %s %s: range %.3g (tolerance %.3g) %s\n", w, metric, diff, tolerance, verdict)
	}
	fmt.Println("deterministic counters across runs of one seed")
	check("end_to_end", "ttl_mix_udp", "exchanges_per_query", 1e-4, false)
	check("end_to_end", "hit_udp", "exchanges_per_query", 0, false)
	check("end_to_end", "miss_udp", "exchanges_per_query", 0, false)
	check("end_to_end", "hit_udp", "allocs_per_query", 0.005, true)
	check("per_layer", "ttl_mix_udp", "cache.hit_ratio", 1e-4, false)
	check("per_layer", "ttl_mix_udp", "authoritative.queries_per_query", 1e-4, false)
	return ok
}

func (set *runSet) save(path string) error {
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func loadSet(path string) (*runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareSets prints, for every end-to-end metric of every workload, the
// medians of two sets and by what share of a's median b is worse. It
// returns false when any is worse by more than the metric's bound.
func compareSets(a, b *runSet, m *manifest) bool {
	ok := true
	for _, w := range workloadNames {
		va, vb := a.Values["end_to_end"][w], b.Values["end_to_end"][w]
		if va == nil || vb == nil {
			continue
		}
		fmt.Printf("%s\n  %-28s %14s %14s %9s %8s\n", w, "metric", "median a", "median b", "worse by", "bound")
		for _, e := range m.EndToEnd {
			if len(va[e.Name]) == 0 || len(vb[e.Name]) == 0 {
				continue
			}
			_, ma, _ := quartiles(va[e.Name])
			_, mb, _ := quartiles(vb[e.Name])
			worse := (mb - ma) / math.Abs(ma)
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > e.Bound {
				verdict, ok = "REGRESSION", false
			}
			fmt.Printf("  %-28s %14.6g %14.6g %+8.2f%% %8.4f %s\n",
				e.Name+" ["+e.Unit+"]", ma, mb, 100*worse, e.Bound, verdict)
		}
	}
	return ok
}

// splitList parses a comma-separated workload list; empty means all.
func splitList(s string) []string {
	if s == "" {
		return workloadNames
	}
	return strings.Split(s, ",")
}
