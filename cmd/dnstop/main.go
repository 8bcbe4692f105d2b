// Command dnstop is the offline query-log analyzer closing the
// observability loop: it reads the rotated structured logs a resolverd or
// authserver captured with -qlog, feeds them through the internal/entrada
// passive-measurement pipeline (§3.4), and reports cache hit rates, TTL
// distributions, interarrival quantiles, and the resolver centricity
// census — the paper's Figures 3/4 statistics computed from live traffic.
//
//	dnstop /tmp/resolverd.qlog            # whole rotated set, text report
//	dnstop -json /tmp/resolverd.qlog      # machine-readable summary
//	dnstop -points response -min-gap 2s LOG
//	dnstop -promlint metrics.prom         # lint a Prometheus exposition
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"dnsttl/internal/entrada"
	"dnsttl/internal/obs"
	"dnsttl/internal/qlog"
	"dnsttl/internal/stats"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit the analysis as JSON instead of text")
		minGap   = flag.Duration("min-gap", 2*time.Second, "drop interarrival gaps below this (retransmission filter, paper uses 2s)")
		noRotate = flag.Bool("no-rotated", false, "read only the named file, not its rotated set (file.N ...)")
		promlint = flag.String("promlint", "", "lint the Prometheus text exposition in FILE and exit (promtool check metrics style)")
		mask     qlog.PointMask
	)
	flag.TextVar(&mask, "points", qlog.MaskAll, "capture points to analyze: comma list of client,response,upstream,notify, or all")
	flag.Parse()

	if *promlint != "" {
		os.Exit(runPromlint(*promlint))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dnstop [flags] QLOG-FILE")
		flag.PrintDefaults()
		os.Exit(2)
	}
	paths := []string{flag.Arg(0)}
	if !*noRotate {
		if set, err := qlog.RotatedSet(flag.Arg(0)); err == nil {
			paths = set
		}
	}
	recs, decodeErrs, err := qlog.ReadAll(paths...)
	if err != nil {
		fatal(err)
	}

	rep := analyze(recs, mask, *minGap)
	rep.Files = paths
	rep.DecodeErrors = decodeErrs

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	printText(rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnstop:", err)
	os.Exit(1)
}

func runPromlint(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnstop:", err)
		return 1
	}
	defer f.Close()
	problems := obs.LintExposition(f)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d problem(s)\n", path, len(problems))
		return 1
	}
	fmt.Printf("%s: exposition OK\n", path)
	return 0
}

// quantiles is the p50/p90/p99 shape every distribution in the report uses.
type quantiles struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Mean  float64 `json:"mean"`
}

func sampleQuantiles(s *stats.Sample) quantiles {
	if s.Len() == 0 {
		return quantiles{}
	}
	return quantiles{
		Count: s.Len(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		Mean:  s.Mean(),
	}
}

// report is the full analysis, JSON-ready.
type report struct {
	Files        []string `json:"files"`
	DecodeErrors int      `json:"decode_errors"`
	Records      int      `json:"records"`
	Span         float64  `json:"span_seconds"`

	ByPoint     map[string]int `json:"by_point,omitempty"`
	ByTransport map[string]int `json:"by_transport,omitempty"`
	ByOutcome   map[string]int `json:"by_outcome,omitempty"`
	ByRCode     map[string]int `json:"by_rcode,omitempty"`

	// HitRate is hits/(hits+misses+stale+coalesced) over response-out
	// records — comparable to the resolver's own cache counters.
	HitRate float64 `json:"hit_rate"`

	TTLSeconds    quantiles `json:"ttl_seconds"`     // answer TTLs on responses
	LatencyMS     quantiles `json:"latency_ms"`      // response-out latency
	UpstreamRTTMS quantiles `json:"upstream_rtt_ms"` // upstream exchange RTT

	// Entrada statistics over (resolver, qname) groups (§3.4).
	Groups            int       `json:"groups"`
	QueriesPerGroup   quantiles `json:"queries_per_group"`
	MinInterarrivalS  quantiles `json:"min_interarrival_seconds"`
	InterarrivalS     quantiles `json:"interarrival_seconds"`
	FractionMulti     float64   `json:"fraction_multi_query"`
	UniqueResolvers   int       `json:"unique_resolvers"`
	SingleButMultiPct float64   `json:"single_but_multi_elsewhere_fraction"`
}

// analyze distills the record stream: taxonomy counts, hit rate, TTL and
// latency distributions, and the entrada group statistics.
func analyze(recs []qlog.Record, mask qlog.PointMask, minGap time.Duration) report {
	rep := report{
		ByPoint:     map[string]int{},
		ByTransport: map[string]int{},
		ByOutcome:   map[string]int{},
		ByRCode:     map[string]int{},
	}
	w := entrada.NewWarehouse()
	ttls := stats.NewSample()
	lat := stats.NewSample()
	rtt := stats.NewSample()
	var hits, answered int
	var minT, maxT int64
	for i := range recs {
		r := &recs[i]
		if mask&(1<<r.Point) == 0 {
			continue
		}
		rep.Records++
		if minT == 0 || r.Time < minT {
			minT = r.Time
		}
		if r.Time > maxT {
			maxT = r.Time
		}
		rep.ByPoint[r.Point.String()]++
		rep.ByTransport[r.Transport]++
		if r.Outcome != qlog.OutcomeNone {
			rep.ByOutcome[r.Outcome.String()]++
		}
		switch r.Point {
		case qlog.PointResponseOut:
			rep.ByRCode[r.RCode.String()]++
			if r.TTL > 0 {
				ttls.Add(float64(r.TTL))
			}
			lat.Add(float64(r.LatencyUS) / 1000)
			switch r.Outcome {
			case qlog.OutcomeHit:
				hits++
				answered++
			case qlog.OutcomeMiss, qlog.OutcomeStale, qlog.OutcomeCoalesced:
				answered++
			}
			// Response-out records are the capture the paper's passive
			// methodology sees at the server: client ↔ resolver pairs.
			w.Ingest(entrada.Row{
				Time:     time.Unix(0, r.Time),
				Resolver: r.Client,
				Name:     r.Name,
				Type:     r.Type,
			})
		case qlog.PointClientIn:
			// Counted in the taxonomy; entrada uses response-out (which
			// carries outcome and TTL) to avoid double-ingesting pairs.
		case qlog.PointUpstream:
			if r.Outcome == qlog.OutcomeNone {
				rtt.Add(float64(r.LatencyUS) / 1000)
			}
		}
	}
	if answered > 0 {
		rep.HitRate = float64(hits) / float64(answered)
	}
	if maxT > minT {
		rep.Span = float64(maxT-minT) / float64(time.Second)
	}
	rep.TTLSeconds = sampleQuantiles(ttls)
	rep.LatencyMS = sampleQuantiles(lat)
	rep.UpstreamRTTMS = sampleQuantiles(rtt)

	census := w.CentricityCensus()
	rep.Groups = census.Groups
	rep.UniqueResolvers = census.UniqueResolvers
	rep.FractionMulti = census.FractionMultiQuery()
	if census.SingleQuery > 0 {
		rep.SingleButMultiPct = float64(census.SingleButMultiElsewhere) / float64(census.SingleQuery)
	}
	rep.QueriesPerGroup = sampleQuantiles(w.QueryCountSample(0))
	rep.MinInterarrivalS = sampleQuantiles(w.MinInterarrivalSample(minGap))
	all := stats.NewSample()
	for _, g := range w.Groups() {
		for _, gap := range g.Interarrivals(minGap) {
			all.Add(gap.Seconds())
		}
	}
	rep.InterarrivalS = sampleQuantiles(all)
	return rep
}

func printText(rep report) {
	fmt.Printf("files:          %v\n", rep.Files)
	fmt.Printf("records:        %d (decode errors %d, span %.1fs)\n",
		rep.Records, rep.DecodeErrors, rep.Span)
	printCountMap("by point", rep.ByPoint)
	printCountMap("by transport", rep.ByTransport)
	printCountMap("by outcome", rep.ByOutcome)
	printCountMap("by rcode", rep.ByRCode)
	fmt.Printf("hit rate:       %.1f%%\n", rep.HitRate*100)
	printQuantiles("answer TTL (s)", rep.TTLSeconds)
	printQuantiles("latency (ms)", rep.LatencyMS)
	printQuantiles("upstream RTT (ms)", rep.UpstreamRTTMS)
	fmt.Printf("entrada:        %d groups, %d resolvers, %.1f%% multi-query, %.1f%% single-but-multi-elsewhere\n",
		rep.Groups, rep.UniqueResolvers, rep.FractionMulti*100, rep.SingleButMultiPct*100)
	printQuantiles("queries/group", rep.QueriesPerGroup)
	printQuantiles("min interarrival (s)", rep.MinInterarrivalS)
	printQuantiles("interarrival (s)", rep.InterarrivalS)
}

func printCountMap(label string, m map[string]int) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-15s", label+":")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, m[k])
	}
	fmt.Println()
}

func printQuantiles(label string, q quantiles) {
	if q.Count == 0 {
		return
	}
	fmt.Printf("%-22s n=%-7d p50=%-9.3g p90=%-9.3g p99=%-9.3g mean=%.3g\n",
		label+":", q.Count, q.P50, q.P90, q.P99, q.Mean)
}
