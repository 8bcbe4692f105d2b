// Command dnsload is the repo's ZDNS-style load engine: it fans a
// qname/qtype workload through a bounded worker pool over one of the four
// real-socket transports and reports QPS, a success/error taxonomy, and
// p50/p90/p99 latency.
//
// Usage:
//
//	dnsload -server 127.0.0.1 -port 5300 -workload www.example.test:A -count 100000
//	dnsload -transport tcp -workers 32 -duration 5s -workload 'q{i}.example.test:A*10000'
//	dnsload -transport doh -insecure -qps 1000 -workload @queries.txt -json - -quiet
//
// The process exits non-zero when the run saw any protocol error
// (timeouts, network errors, undecodable responses) and -fail-on-error is
// set, which is how CI gates the loopback smoke runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"time"

	"dnsttl"
	"dnsttl/internal/loadgen"
	"dnsttl/internal/transport"
)

func main() {
	var (
		server      = flag.String("server", "127.0.0.1", "target server address")
		port        = flag.Uint("port", 0, "target port (0 = transport default: 53/53/853/443)")
		poolSize    = flag.Int("pool-size", transport.DefaultPoolSize, "pooled connections per upstream")
		workers     = flag.Int("workers", 16, "concurrent query workers")
		count       = flag.Int("count", 0, "stop after this many queries (0 = use -duration)")
		duration    = flag.Duration("duration", 0, "stop after this wall time (0 = use -count)")
		qps         = flag.Int("qps", 0, "cap the aggregate send rate (0 = unbounded)")
		workload    = flag.String("workload", "www.example.org:A", "workload spec: items 'name[:type][*count]' ('{i}' expands), or @file")
		timeout     = flag.Duration("timeout", 3*time.Second, "per-query timeout")
		insecure    = flag.Bool("insecure", false, "skip TLS verification for dot/doh (self-signed test certs)")
		jsonOut     = flag.String("json", "", "write the result as JSON to this file ('-' = stdout)")
		failOnError = flag.Bool("fail-on-error", false, "exit 1 if the run saw any protocol error")
		quiet       = flag.Bool("quiet", false, "suppress the human-readable summary")
		kind        transport.Kind
	)
	flag.TextVar(&kind, "transport", transport.UDP, "transport: udp, tcp, dot, or doh")
	flag.Parse()

	addr, err := netip.ParseAddr(*server)
	if err != nil {
		fatal(err)
	}
	dstPort := uint16(*port)
	if dstPort == 0 {
		dstPort = kind.DefaultPort()
	}
	wl, err := loadgen.ParseWorkload(*workload)
	if err != nil {
		fatal(err)
	}
	if *count <= 0 && *duration <= 0 {
		*count = 10000
	}

	reg := dnsttl.NewRegistry(nil)
	tr, err := transport.New(transport.Config{
		Kind:     kind,
		PoolSize: *poolSize,
		Timeout:  *timeout,
		Insecure: *insecure,
		Metrics:  transport.NewMetrics(reg),
	})
	if err != nil {
		fatal(err)
	}
	defer tr.Close()

	res, err := loadgen.Run(loadgen.Config{
		Target:        netip.AddrPortFrom(addr, dstPort),
		Transport:     tr,
		TransportName: kind.String(),
		Workload:      wl,
		Workers:       *workers,
		Count:         *count,
		Duration:      *duration,
		QPS:           *qps,
		Registry:      reg,
	})
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		fmt.Print(res)
		snap := reg.Snapshot()
		fmt.Printf("  pool: %d dials, %d reuses, %d tls handshakes, %d tcp fallbacks\n",
			snap.Counters[transport.MetricDials], snap.Counters[transport.MetricReuses],
			snap.Counters[transport.MetricHandshakes], snap.Counters[transport.MetricTCPFallbacks])
	}
	if *jsonOut != "" {
		enc, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		enc = append(enc, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(enc)
		} else if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			fatal(err)
		}
	}
	if *failOnError && res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "dnsload: %d protocol errors\n", res.Errors)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dnsload:", err)
	os.Exit(1)
}
