package main

import "fmt"

// workload describes one live workload: its zone, its query stream and the
// resolver configuration it runs against.
type workload struct {
	name string
	// names is the size of the queryable population; the zone holds one
	// more name, used only to warm the upstream path.
	names int
	// zipf draws names from Zipf(1.1); otherwise every query goes to a
	// distinct name and the timed section ends when they run out.
	zipf   bool
	ttlFor func(idx int) uint32
	// warmAll queries every name once before timing, so that every timed
	// query is a cache hit.
	warmAll bool
	// cacheCapacity, when positive, bounds the resolver cache (LRU).
	cacheCapacity int
	// virtualClock runs the resolver on the query-driven clock.
	virtualClock bool
	// window is the fixed number of queries over which repro_s and the
	// deterministic counters are taken; a run issues at least this many
	// even when the time budget ends sooner.
	window int64
	// latencyCap sizes the preallocated latency-sample buffers.
	latencyCap int
}

func constTTL(ttl uint32) func(int) uint32 { return func(int) uint32 { return ttl } }

var mixTTLs = [3]uint32{60, 300, 3600}

var liveWorkloads = []*workload{
	{
		name: "hit_udp", names: 1000, zipf: true, ttlFor: constTTL(86400), warmAll: true,
		window: 400_000, latencyCap: 3 << 20,
	},
	{
		name: "miss_udp", names: 600_000, ttlFor: constTTL(300),
		window: 150_000, latencyCap: 600_000,
	},
	{
		name: "ttl_mix_udp", names: 200_000, zipf: true,
		ttlFor:        func(idx int) uint32 { return mixTTLs[idx%3] },
		cacheCapacity: 20_000, virtualClock: true,
		window: 300_000, latencyCap: 2 << 20,
	},
}

const simWorkload = "sim_repro"

var workloadNames = []string{"hit_udp", "miss_udp", "ttl_mix_udp", simWorkload}

func findLive(name string) *workload {
	for _, w := range liveWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef names one metric and its unit. The lists below are the ones
// BENCHMARK.json declares; a test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_query", "us"},
	{"allocs_per_query", "count"},
	{"exchanges_per_query", "ratio"},
	{"success_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"repro_s", "s"},
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// unitOf returns the unit the catalogue gives a metric.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not in the catalogue", name))
}

// perLayer is the per-layer catalogue: the layer table, the traced run's
// reductions and counters, and one time per experiment. A metric that does
// not apply to a workload (a span of a live run on sim_repro, an
// experiment's time on a live workload) reads 0 there.
var perLayer = func() []metricDef {
	list := []metricDef{
		// generator calibration against a bare echo socket
		{"bench.gen_floor_rtt_ns", "ns"},
		{"bench.gen_cpu_us_per_query", "us"},
		{"bench.gen_allocs_per_query", "count"},
		// untraced quarter of the traced run
		{"bench.latency_p99_us", "us"},
		{"bench.latency_p999_us", "us"},
		{"bench.latency_max_us", "us"},
		{"bench.latency_samples", "count"},
		{"bench.latency_tail_percentile", "%"},
		{"bench.qps_mean", "1/s"},
		{"bench.window_s", "s"},
		{"bench.fail_ratio", "ratio"},
		// traced run: spans
		{"bench.trace_overhead_ratio", "ratio"},
		{"bench.traced_queries", "count"},
		{"bench.trace_dropped_spans", "count"},
		{"bench.trace_ambiguous_queries", "count"},
		{"bench.trace_median_sum_ratio", "ratio"},
		{"bench.query_p50_us", "us"},
		{"authoritative.udp_listener_self_p50_us", "us"},
		{"dnsttl.serve_p50_us", "us"},
		{"dnsttl.serve_self_p50_us", "us"},
		{"transport.exchange_p50_us", "us"},
		{"transport.exchange_self_p50_us", "us"},
		{"authoritative.serve_p50_us", "us"},
		// traced run: counters
		{"transport.exchanges_per_query", "ratio"},
		{"authoritative.queries_per_query", "ratio"},
		{"transport.dials", "count"},
		{"transport.reuse_ratio", "ratio"},
		{"transport.errors", "count"},
		{"cache.hit_ratio", "ratio"},
		{"cache.evictions_per_query", "ratio"},
		{"cache.entries_end", "count"},
		{"cache.bytes_end", "B"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_total_ms", "ms"},
		{"runtime.alloc_bytes_per_query", "B"},
		// layer table
		{"middleware.default_self_ns", "ns"},
		{"dnsttl.serve_hit_residual_ns", "ns"},
		{"resolver.upstream_per_leaf_miss", "ratio"},
		{"experiments.report_digest48", "id"},
		{"experiments.crawl_s", "s"},
	}
	for _, row := range []struct {
		name   string
		allocs bool
	}{
		{"dnswire.decode_query", true},
		{"dnswire.decoder_reuse_query", false},
		{"dnswire.encode_response", true},
		{"dnswire.append_encode_response", false},
		{"cache.get_hit", false},
		{"cache.get_miss", false},
		{"cache.put_new", true},
		{"cache.put_replace_expired", false},
		{"cache.put_evict_lru", true},
		{"resolver.resolve_hit", true},
		{"resolver.resolve_leaf_miss", true},
		{"middleware.default_pipeline", true},
		{"middleware.hardened_pipeline", true},
		{"farm.resolve_hit_shared", true},
		{"dnsttl.serve_hit", true},
		{"dnsttl.serve_leaf_miss", true},
		{"qlog.serve_hit_overhead", true},
		{"authoritative.serve_answer", true},
		{"authoritative.serve_referral", false},
		{"authoritative.serve_nxdomain", false},
		{"zone.lookup", false},
		{"authoritative.udp_floor_rtt", true},
		{"transport.udp_exchange", true},
		{"simnet.exchange", true},
		{"workload.generator_next", false},
	} {
		list = append(list, metricDef{row.name + "_ns", "ns"})
		if row.allocs {
			list = append(list, metricDef{row.name + "_allocs", "count"})
		}
	}
	for _, id := range timedExperiments() {
		list = append(list, metricDef{"experiments." + id + "_s", "s"})
	}
	return list
}()
