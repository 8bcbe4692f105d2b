package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"dnsttl"
	"dnsttl/internal/transport"
)

// A run sets its workload up several times; setup_s is the median, and a
// live run measures the last set-up. A sim_repro set-up is a whole small
// pass, so it is repeated less.
const (
	liveSetups = 5
	simSetups  = 3
)

// The box this runs on is shared, and a neighbour can only take CPU away:
// interference is one-sided and comes in bursts of 0.1 s to minutes. Each
// timing is therefore taken over short stretches of the run and reduced so
// that the stretches a burst touched do not decide it.
const (
	// rateInterval is the spacing of the throughput and CPU samples. qps
	// is the rate that the best quietShare of these intervals reach and
	// cpu_us_per_query the CPU per query that the cheapest quietShare need.
	rateInterval = 100 * time.Millisecond
	quietShare   = 0.05
	// minIntervals is the fewest intervals a quantile is taken from; a
	// shorter run reports its totals.
	minIntervals = 20
	// segmentSize is the number of consecutive latency samples of one
	// client that make a segment; 1024 leave tailBeyond samples above a
	// segment's 99th percentile.
	segmentSize = 1024
)

// liveSetup is one workload set up and ready for its first timed query.
type liveSetup struct {
	w   *workload
	st  *stack
	gen *generator
}

// setUpLive builds the zones and both servers, connects the generator,
// draws the query stream and sends the warm-up queries.
func setUpLive(w *workload, seed int64, tr *tracer, issued *atomic.Int64) (_ *liveSetup, err error) {
	st, err := newStack(w, issued, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	gen, err := newGenerator(w, seed, issued, st.resolver, tr)
	if err != nil {
		return nil, err
	}
	warm := []int{w.names}
	if w.warmAll {
		warm = warm[:0]
		for i := 0; i < w.names; i++ {
			warm = append(warm, i)
		}
	}
	if err := gen.warm(warm); err != nil {
		gen.Close()
		return nil, err
	}
	return &liveSetup{w: w, st: st, gen: gen}, nil
}

func (s *liveSetup) Close() error {
	s.gen.Close()
	return s.st.Close()
}

// repeatedSetUp sets w up n times, tearing down all but the last, and
// returns the last with the duration of each.
func repeatedSetUp(w *workload, seed int64, n int) (*liveSetup, []float64, error) {
	var durations []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := setUpLive(w, seed, nil, new(atomic.Int64))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		durations = append(durations, time.Since(t0).Seconds())
		if i == n-1 {
			return s, durations, nil
		}
		if err := s.Close(); err != nil {
			return nil, nil, fmt.Errorf("tear-down %d: %w", i+1, err)
		}
		// Collect the torn-down zone now, so that peak_rss_mb is the size
		// of one set-up and not of however many the collector left behind.
		runtime.GC()
	}
}

// liveMeasure is what one timed section yields.
type liveMeasure struct {
	attempted, ok  int64
	fails          [numVerdicts]int64
	wall           time.Duration
	qps, qpsMean   float64 // quiet-interval rate; validated replies over wall time
	cpuUS          float64 // CPU µs per query in the quiet intervals
	p50US, p99US   float64 // medians over latency segments
	segments       int
	lat            []int64 // every sample, sorted
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	cache0, cache1 dnsttl.CacheStats
	authQueries    uint64
	// The window fields are taken when the last query of the fixed-count
	// window completes; windowWall is 0 if it never did.
	windowWall  time.Duration
	windowAuth  uint64
	windowCache dnsttl.CacheStats
	windowRSS   float64
}

// measure runs the timed section: at least floor queries and at least
// `seconds` of them, with limit as in generator.run.
func (s *liveSetup) measure(seconds time.Duration, floor int64) liveMeasure {
	var m liveMeasure
	limit := int64(0)
	if !s.w.zipf {
		limit = int64(s.w.names)
	}
	runtime.GC()
	auth0 := s.st.authQueries()
	m.cache0 = s.st.client.CacheStats()

	type rateSample struct {
		at  time.Time
		ok  int64
		cpu time.Duration
	}
	var samples []rateSample
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(rateInterval)
		defer tick.Stop()
		samples = append(samples, rateSample{time.Now(), 0, cpuTime()})
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				samples = append(samples, rateSample{now, s.gen.okCount(), cpuTime()})
			}
		}
	}()

	var start time.Time
	s.gen.onWindow = func(now time.Time) {
		m.windowWall = now.Sub(start)
		m.windowAuth = s.st.authQueries() - auth0
		m.windowCache = s.st.client.CacheStats()
		m.windowRSS = peakRSSMB()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	if s.gen.tr != nil {
		s.gen.tr.begin()
	}
	start = time.Now()
	end := s.gen.run(start, seconds, floor, limit)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	close(stop)
	<-stopped

	m.wall = end.Sub(start)
	m.mallocs, m.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	m.gcCycles, m.gcPause = ms1.NumGC-ms0.NumGC, time.Duration(ms1.PauseTotalNs-ms0.PauseTotalNs)
	m.cache1 = s.st.client.CacheStats()
	m.authQueries = s.st.authQueries() - auth0
	m.attempted, m.ok, m.fails, m.lat = s.gen.totals()
	slices.Sort(m.lat)
	m.qpsMean = float64(m.ok) / m.wall.Seconds()
	var rates, cpus []float64 // per interval with replies: replies per second, CPU µs per reply
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if n, dt := float64(b.ok-a.ok), b.at.Sub(a.at).Seconds(); n > 0 && dt > 0 {
			rates = append(rates, n/dt)
			cpus = append(cpus, float64((b.cpu-a.cpu).Microseconds())/n)
		}
	}
	m.qps, m.cpuUS = m.qpsMean, float64(cpu.Microseconds())/float64(max(m.ok, 1))
	if len(rates) >= minIntervals {
		slices.Sort(rates)
		slices.Sort(cpus)
		m.qps, m.cpuUS = quantileOf(rates, 1-quietShare), quantileOf(cpus, quietShare)
	}
	m.p50US, m.p99US, m.segments = segmentLatency(s.gen.clients)
	return m
}

// segmentLatency cuts every client's latency samples, in the order they
// were taken, into segments of segmentSize, and returns the median over
// segments of each segment's median and of each segment's 99th percentile
// (which has tailBeyond samples above it), in µs. A burst of interference
// spoils the segments it touches and leaves the medians alone, where it
// would move a percentile taken over the whole run. With no complete
// segment it falls back to the quantiles of all samples.
func segmentLatency(clients []*client) (p50, p99 float64, segments int) {
	var medians, tails []float64
	seg := make([]int64, segmentSize)
	for _, c := range clients {
		for lo := 0; lo+segmentSize <= len(c.lat); lo += segmentSize {
			copy(seg, c.lat[lo:lo+segmentSize])
			slices.Sort(seg)
			m, _ := quantile(seg, 0.50, tailBeyond)
			t, _ := quantile(seg, 0.99, tailBeyond)
			medians, tails = append(medians, float64(m)/1e3), append(tails, float64(t)/1e3)
		}
	}
	if len(medians) == 0 {
		var all []int64
		for _, c := range clients {
			all = append(all, c.lat...)
		}
		if len(all) == 0 {
			return 0, 0, 0
		}
		slices.Sort(all)
		m, _ := quantile(all, 0.50, tailBeyond)
		t, _ := quantile(all, 0.99, tailBeyond)
		return float64(m) / 1e3, float64(t) / 1e3, 0
	}
	return median(medians), median(tails), len(medians)
}

func (m *liveMeasure) failed() int64 { return m.attempted - m.ok }

// authPerQuery is the number of authoritative queries per client query.
// Where the cache outcome depends on how many queries were issued
// (ttl_mix_udp) it is taken over the fixed-count window, so that it is a
// function of the seed; it is then off by at most the one query the other
// client had in flight when the window closed. Elsewhere it is taken over
// the whole timed section, at whose end nothing is in flight, and is exact.
func (m *liveMeasure) authPerQuery(w *workload, window int64) float64 {
	if w.virtualClock {
		return float64(m.windowAuth) / float64(window)
	}
	return float64(m.authQueries) / float64(m.attempted)
}

// failSummary lists the reasons replies were rejected, for the log.
func (m *liveMeasure) failSummary() string {
	var parts []string
	for v, n := range m.fails {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", verdictNames[v], n))
		}
	}
	return strings.Join(parts, " ")
}

// latencyUS returns the p-quantile of the latency samples in µs and the
// percentile actually reported (see quantile).
func (m *liveMeasure) latencyUS(p float64) (float64, float64) {
	if len(m.lat) == 0 {
		return 0, 0
	}
	v, used := quantile(m.lat, p, tailBeyond)
	return float64(v) / 1e3, used
}

// runLive is the untraced run of a live workload: every end-to-end metric.
func runLive(w *workload, o runOpts) (result, error) {
	if err := calibrateOrAbort(); err != nil {
		return result{}, err
	}
	s, setupTimes, err := repeatedSetUp(w, o.seed, o.setups(liveSetups))
	if err != nil {
		return result{}, err
	}
	window := o.window(w)
	m := s.measure(o.seconds, window)
	if err := s.Close(); err != nil {
		return result{}, err
	}
	res := result{attempted: m.attempted, failed: m.failed(), metrics: metrics{}}
	if m.ok == 0 || m.windowWall == 0 {
		return res, fmt.Errorf("%s: no complete window of %d queries (%d validated, failures: %s)",
			w.name, window, m.ok, m.failSummary())
	}
	if res.failed > 0 {
		logf("%s: %d of %d queries failed: %s", w.name, res.failed, res.attempted, m.failSummary())
	}
	logf("%s: %d latency samples in %d segments of %d; the window of %d queries took %.3f s",
		w.name, len(m.lat), m.segments, segmentSize, window, m.windowWall.Seconds())
	res.metrics = metrics{
		"setup_s":             median(setupTimes),
		"qps":                 m.qps,
		"latency_p50_us":      m.p50US,
		"cpu_us_per_query":    m.cpuUS,
		"allocs_per_query":    float64(m.mallocs) / float64(m.ok),
		"exchanges_per_query": 1 + m.authPerQuery(w, window),
		"success_ratio":       float64(m.ok) / float64(m.attempted),
		"peak_rss_mb":         m.windowRSS,
		"repro_s":             float64(window) / m.qps,
	}
	return res, nil
}

// traceLive is the traced run of a live workload: a quarter of the time
// untraced, for the baseline the overhead ratio needs, then the rest with
// the three wrappers installed. The traced part issues at least the
// fixed-count window, over which the cache and authoritative counters are
// taken, so that they repeat for a seed.
func traceLive(w *workload, o runOpts) (result, error) {
	seed, seconds, window := o.seed, o.seconds, o.window(w)
	out := metrics{}
	cal, err := calibrate()
	if err != nil {
		return result{}, err
	}
	out["bench.gen_floor_rtt_ns"] = cal.rttNS
	out["bench.gen_cpu_us_per_query"] = cal.cpuUS
	out["bench.gen_allocs_per_query"] = cal.allocs

	plain, err := setUpLive(w, seed, nil, new(atomic.Int64))
	if err != nil {
		return result{}, err
	}
	base := plain.measure(seconds/4, 0)
	if err := plain.Close(); err != nil {
		return result{}, err
	}
	runtime.GC()

	issued := new(atomic.Int64)
	tr := newTracer(issued, traceCapacity)
	traced, err := setUpLive(w, seed, tr, issued)
	if err != nil {
		return result{}, err
	}
	m := traced.measure(seconds-seconds/4, window)
	reg := traced.st.registry.Snapshot()
	if err := traced.Close(); err != nil {
		return result{}, err
	}
	res := result{attempted: base.attempted + m.attempted, failed: base.failed() + m.failed(), metrics: out}
	if base.ok == 0 || m.windowWall == 0 {
		return res, fmt.Errorf("%s: traced run did not complete its window of %d queries (%s %s)",
			w.name, window, base.failSummary(), m.failSummary())
	}
	sum := reduce(tr.recorded())
	if sum.sumMismatches > 0 {
		return res, fmt.Errorf("%s: self times of %d of %d traced queries do not add up to bench.query",
			w.name, sum.sumMismatches, sum.queries)
	}

	ok := float64(m.ok)
	p999, p999At := base.latencyUS(0.999)
	out["bench.latency_p99_us"] = base.p99US
	out["bench.latency_p999_us"] = p999
	out["bench.latency_max_us"] = float64(base.lat[len(base.lat)-1]) / 1e3
	out["bench.latency_samples"] = float64(len(base.lat))
	out["bench.latency_tail_percentile"] = 100 * p999At
	out["bench.qps_mean"] = base.qpsMean
	out["bench.window_s"] = m.windowWall.Seconds()
	out["bench.fail_ratio"] = float64(res.failed) / float64(res.attempted)
	out["bench.trace_overhead_ratio"] = m.qps / base.qps
	out["bench.traced_queries"] = float64(sum.queries)
	out["bench.trace_dropped_spans"] = float64(sum.droppedSpans)
	out["bench.trace_ambiguous_queries"] = float64(sum.ambiguous)
	out["bench.trace_median_sum_ratio"] = (sum.listenerSelfP50 + sum.serveSelfP50 +
		sum.exchangesPerQuery*sum.exchangeP50) / sum.queryP50
	out["bench.query_p50_us"] = sum.queryP50
	out["authoritative.udp_listener_self_p50_us"] = sum.listenerSelfP50
	out["dnsttl.serve_p50_us"] = sum.serveP50
	out["dnsttl.serve_self_p50_us"] = sum.serveSelfP50
	out["transport.exchange_p50_us"] = sum.exchangeP50
	out["transport.exchange_self_p50_us"] = sum.exchangeSelfP50
	out["authoritative.serve_p50_us"] = sum.authP50
	out["transport.exchanges_per_query"] = sum.exchangesPerQuery
	out["authoritative.queries_per_query"] = m.authPerQuery(w, window)
	dials := float64(reg.Counters[transport.MetricDials])
	reuses := float64(reg.Counters[transport.MetricReuses])
	out["transport.dials"] = dials
	out["transport.reuse_ratio"] = 0
	if dials+reuses > 0 {
		out["transport.reuse_ratio"] = reuses / (dials + reuses)
	}
	out["transport.errors"] = float64(reg.Counters[transport.MetricErrors])
	hits := float64(m.windowCache.Hits - m.cache0.Hits)
	misses := float64(m.windowCache.Misses - m.cache0.Misses)
	out["cache.hit_ratio"] = hits / (hits + misses)
	out["cache.evictions_per_query"] = float64(m.windowCache.Evictions-m.cache0.Evictions) / float64(window)
	out["cache.entries_end"] = float64(m.cache1.Entries)
	out["cache.bytes_end"] = float64(m.cache1.Bytes)
	out["runtime.gc_cycles"] = float64(m.gcCycles)
	out["runtime.gc_pause_total_ms"] = float64(m.gcPause.Microseconds()) / 1e3
	out["runtime.alloc_bytes_per_query"] = float64(m.bytes) / ok
	return res, nil
}

// traceCapacity is the number of spans a traced run keeps; later ones are
// counted as dropped and their queries left out of the reduction.
const traceCapacity = 4 << 20
