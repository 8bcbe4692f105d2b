// Command resolverd runs the library's recursive resolver as a daemon: it
// answers client queries over UDP, iterating from the configured roots and
// caching under the selected policy.
//
// Usage:
//
//	resolverd -listen 127.0.0.1:5300 -root 127.0.0.1 -rootport 5353
//	resolverd -listen 127.0.0.1:5300 -root 198.41.0.4 -parentcentric
//
// A local root mirror (RFC 7706) can be loaded with -localroot via AXFR
// from the first root server.
package main

import (
	"crypto/tls"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dnsttl"
	"dnsttl/internal/authoritative"
	"dnsttl/internal/cache"
	"dnsttl/internal/farm"
	"dnsttl/internal/qlog"
)

// pushNet routes the push subscriber's subscribe/poll/IXFR exchanges to
// each authority's own port, all through one pooled UDP transport.
type pushNet struct {
	t     dnsttl.Transport
	ports map[netip.Addr]uint16
}

func (p pushNet) Exchange(src, dst netip.Addr, query []byte) ([]byte, time.Duration, error) {
	return p.t.Exchange(netip.AddrPortFrom(dst, p.ports[dst]), query)
}

func main() {
	var (
		listen        = flag.String("listen", "127.0.0.1:5300", "UDP listen address for clients")
		roots         = flag.String("root", "", "comma-separated root server addresses")
		rootPort      = flag.Uint("rootport", 53, "port for upstream servers")
		parentCentric = flag.Bool("parentcentric", false, "prefer parent-side TTLs")
		cap           = flag.Uint("ttlcap", 604800, "TTL cap in seconds (0 = none)")
		stale         = flag.Bool("servestale", false, "serve stale answers when authoritatives fail")
		validate      = flag.Bool("validate", false, "enable DNSSEC validation")
		localRoot     = flag.Bool("localroot", false, "mirror the root zone locally via AXFR (RFC 7706)")
		frontends     = flag.Int("frontends", 1, "run a resolver farm of this many recursive frontends")
		coalesce      = flag.Bool("coalesce", true, "coalesce identical in-flight queries across the farm")
		metrics       = flag.String("metrics", "", "HTTP address for /metrics and /trace introspection (empty = off)")
		retries       = flag.Int("retries", 0, "upstream attempts per iteration step (0 = legacy single-shot semantics)")
		backoff       = flag.Duration("backoff", 0, "delay before the first retry, doubling per retry (0 = none)")
		hedge         = flag.Duration("hedge", 0, "launch a hedged query to the next-best server after this delay (0 = off)")
		srtt          = flag.Bool("srtt", false, "order candidate servers by smoothed RTT instead of shuffling")
		cacheBytes    = flag.Int64("cache-bytes", 0, "cache memory bound in bytes, wire-format accounted (0 = unbounded)")
		cacheEntries  = flag.Int("cache-entries", 0, "cache entry-count bound (0 = unbounded)")
		prefetch      = flag.Float64("prefetch", 0, "refresh-ahead: re-resolve popular entries in the last FRACTION of their TTL (0 = off)")
		prefetchBudg  = flag.Int("prefetch-budget", 0, "refresh-ahead resolutions per minute on average, in bursts of up to as many (0 = unlimited)")
		poolSize      = flag.Int("pool-size", 0, "pooled upstream connections per server (0 = default)")
		insecure      = flag.Bool("insecure", false, "skip TLS verification for dot/doh upstreams (self-signed certs)")
		listenTCP     = flag.String("listen-tcp", "", "TCP listen address for clients (empty = off)")
		listenDoT     = flag.String("listen-dot", "", "DNS-over-TLS listen address for clients (empty = off)")
		listenDoH     = flag.String("listen-doh", "", "DNS-over-HTTPS listen address for clients (empty = off)")
		tlsCert       = flag.String("tls-cert", "", "TLS certificate file for -listen-dot/-listen-doh (empty = ephemeral self-signed)")
		tlsKey        = flag.String("tls-key", "", "TLS key file for -listen-dot/-listen-doh")
		qlogPath      = flag.String("qlog", "", "structured query-log file; rotations shift to FILE.1.. (empty = off)")
		qlogMaxBytes  = flag.Int64("qlog-max-bytes", 0, "rotate the query log past this size (0 = 64 MiB)")
		qlogFiles     = flag.Int("qlog-files", 0, "rotated query-log files kept, active included (0 = 4)")
		qlogSample    = flag.Int("qlog-sample", 0, "keep 1 in N of each capture point's query-log records (0 or 1 = all)")
		qlogClientMod = flag.Int("qlog-client-mod", 0, "keep only clients hashing to 0 mod M, complete per-client streams (0 or 1 = all)")
		pushPoll      = flag.Duration("push-poll", 0, "SOA polling fallback period for push subscriptions (0 = 5m)")
		pushPrefetch  = flag.Bool("push-prefetch", false, "re-resolve names purged by push notifies immediately (purge+prefetch)")
		pipeline      = flag.String("pipeline", "", "middleware graph spec file (see docs/middleware.md); SIGHUP re-reads and swaps it, keeping the old graph on error (empty = default pass-through pipeline)")
		pushSubs      []string
		topology      dnsttl.FarmTopology
		eviction      dnsttl.EvictionPolicy
		kind          dnsttl.TransportKind
		qlogFormat    dnsttl.QueryLogFormat
		qlogPoints    dnsttl.QueryLogPointMask
	)
	flag.TextVar(&topology, "cache-topology", farm.Shared, "farm cache topology: private, shared, or sharded")
	flag.TextVar(&eviction, "eviction", cache.EvictFIFO, "cache eviction policy: fifo, lru, or slru (TinyLFU admission)")
	flag.TextVar(&kind, "transport", dnsttl.TransportUDP, "upstream transport: udp, tcp, dot, or doh")
	flag.TextVar(&qlogFormat, "qlog-format", qlog.FormatJSONL, "query-log encoding: jsonl or binary")
	flag.TextVar(&qlogPoints, "qlog-points", qlog.MaskAll, "capture points to log: comma list of client,response,upstream,notify, or all")
	flag.Func("push", "zone=host:port push subscription (repeatable): subscribe to the zone's NOTIFY/IXFR change feed and purge on notify", func(v string) error {
		pushSubs = append(pushSubs, v)
		return nil
	})
	flag.Parse()
	if *roots == "" {
		fmt.Fprintln(os.Stderr, "resolverd: -root is required")
		os.Exit(2)
	}
	var rootAddrs []netip.Addr
	for _, s := range strings.Split(*roots, ",") {
		a, err := netip.ParseAddr(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "resolverd:", err)
			os.Exit(2)
		}
		rootAddrs = append(rootAddrs, a)
	}

	pol := dnsttl.DefaultPolicy()
	pol.TTLCap = uint32(*cap)
	pol.ServeStale = *stale
	pol.Validate = *validate
	if *parentCentric {
		pol.Centricity = dnsttl.ParentCentric
	}
	pol.LocalRoot = *localRoot
	pol.Retry = dnsttl.RetryPolicy{
		Attempts:    *retries,
		Backoff:     *backoff,
		Jitter:      0.5,
		Hedge:       *hedge,
		OrderBySRTT: *srtt,
	}
	if *prefetch > 0 {
		if *prefetch > 1 {
			fmt.Fprintln(os.Stderr, "resolverd: -prefetch must be a fraction in (0,1]")
			os.Exit(2)
		}
		pol.PrefetchFraction = *prefetch
		pol.PrefetchBudget = *prefetchBudg
	}

	cfg := dnsttl.ClientConfig{
		Policy:        pol,
		Roots:         rootAddrs,
		Frontends:     *frontends,
		Coalesce:      *coalesce,
		CacheCapacity: *cacheEntries,
		CacheBytes:    *cacheBytes,
		Eviction:      eviction,
	}
	if *metrics != "" {
		cfg.Registry = dnsttl.NewRegistry(nil)
		cfg.Tracer = dnsttl.NewTracer(nil)
	}
	var qlogger *dnsttl.QueryLog
	if *qlogPath != "" {
		var err error
		qlogger, err = dnsttl.NewQueryLog(dnsttl.QueryLogConfig{
			Path:         *qlogPath,
			Format:       qlogFormat,
			MaxBytes:     *qlogMaxBytes,
			MaxFiles:     *qlogFiles,
			SampleN:      *qlogSample,
			PerClientMod: *qlogClientMod,
			Points:       qlogPoints,
			Registry:     cfg.Registry,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "resolverd: qlog:", err)
			os.Exit(1)
		}
		defer qlogger.Close()
		fmt.Printf("query log: %s (%s)\n", *qlogPath, qlogFormat)
	}
	upstreamNet, err := dnsttl.NewTransportNet(kind, dnsttl.TransportOptions{
		Port:     uint16(*rootPort),
		PoolSize: *poolSize,
		Insecure: *insecure,
		Registry: cfg.Registry,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "resolverd:", err)
		os.Exit(2)
	}
	defer upstreamNet.Close()
	cfg.Net = upstreamNet
	if *frontends > 1 {
		cfg.Topology = topology
	}
	if *localRoot {
		axfr, err := dnsttl.NewTransportNet(dnsttl.TransportTCP, dnsttl.TransportOptions{Port: uint16(*rootPort)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "resolverd:", err)
			os.Exit(2)
		}
		z, err := authoritative.FetchZone(axfr, rootAddrs[0], dnsttl.NewName("."))
		axfr.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "resolverd: local root AXFR:", err)
			os.Exit(1)
		}
		cfg.LocalRoot = z
		fmt.Printf("mirrored root zone: %d records\n", z.RecordCount())
	}
	if *pipeline != "" {
		spec, err := os.ReadFile(*pipeline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resolverd:", err)
			os.Exit(2)
		}
		if err := dnsttl.CheckPipeline(string(spec)); err != nil {
			fmt.Fprintln(os.Stderr, "resolverd:", err)
			os.Exit(2)
		}
		cfg.Pipeline = string(spec)
	}
	// The upstream tap is labeled with the upstream transport; the
	// client-facing taps are created per listener by RecursiveServer.
	cfg.QueryLog = qlogger.Tap(kind.String())
	client, err := dnsttl.NewClient(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "resolverd:", err)
		os.Exit(1)
	}
	if *pipeline != "" {
		fmt.Printf("pipeline: %s [%s]\n", *pipeline, strings.Join(client.PipelineStages(), " -> "))
	}
	// SIGHUP re-reads the -pipeline spec and swaps the graph atomically;
	// a spec that fails to parse or build leaves the running graph
	// untouched, so a bad rollout never takes the datapath down.
	if *pipeline != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				spec, err := os.ReadFile(*pipeline)
				if err != nil {
					fmt.Fprintln(os.Stderr, "resolverd: pipeline reload:", err)
					continue
				}
				if err := client.SetPipeline(string(spec)); err != nil {
					fmt.Fprintln(os.Stderr, "resolverd: pipeline reload rejected (keeping old graph):", err)
					continue
				}
				fmt.Printf("pipeline reloaded: %s [%s]\n", *pipeline, strings.Join(client.PipelineStages(), " -> "))
			}
		}()
	}
	rs := &dnsttl.RecursiveServer{Client: client, QueryLog: qlogger}
	addr, err := rs.ListenUDP(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "resolverd:", err)
		os.Exit(1)
	}
	if *listenTCP != "" {
		tcpAddr, err := rs.ListenTCP(*listenTCP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resolverd:", err)
			os.Exit(1)
		}
		fmt.Printf("serving clients on tcp://%s\n", tcpAddr)
	}
	if *listenDoT != "" || *listenDoH != "" {
		var cert tls.Certificate
		if *tlsCert != "" {
			c, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
			if err != nil {
				fmt.Fprintln(os.Stderr, "resolverd:", err)
				os.Exit(1)
			}
			cert = c
		} else {
			c, _, err := dnsttl.SelfSignedTLS("127.0.0.1", "::1", "localhost")
			if err != nil {
				fmt.Fprintln(os.Stderr, "resolverd:", err)
				os.Exit(1)
			}
			cert = c
			fmt.Println("dot/doh: using an ephemeral self-signed certificate (clients need -insecure)")
		}
		tcfg := &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}
		if *listenDoT != "" {
			dotAddr, err := rs.ListenDoT(*listenDoT, tcfg.Clone())
			if err != nil {
				fmt.Fprintln(os.Stderr, "resolverd:", err)
				os.Exit(1)
			}
			fmt.Printf("serving clients on dot://%s\n", dotAddr)
		}
		if *listenDoH != "" {
			dohAddr, err := rs.ListenDoH(*listenDoH, tcfg.Clone())
			if err != nil {
				fmt.Fprintln(os.Stderr, "resolverd:", err)
				os.Exit(1)
			}
			fmt.Printf("serving clients on doh://%s%s\n", dohAddr, "/dns-query")
		}
	}
	if len(pushSubs) > 0 {
		pushUDP, err := dnsttl.NewTransportNet(dnsttl.TransportUDP, dnsttl.TransportOptions{Timeout: 2 * time.Second})
		if err != nil {
			fmt.Fprintln(os.Stderr, "resolverd:", err)
			os.Exit(2)
		}
		defer pushUDP.Close()
		net := pushNet{t: pushUDP.T, ports: map[netip.Addr]uint16{}}
		type subscription struct {
			origin dnsttl.Name
			server netip.Addr
		}
		var wanted []subscription
		for _, spec := range pushSubs {
			zoneName, hostport, ok := strings.Cut(spec, "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "resolverd: bad -push %q (want zone=host:port)\n", spec)
				os.Exit(2)
			}
			ap, err := netip.ParseAddrPort(hostport)
			if err != nil {
				fmt.Fprintf(os.Stderr, "resolverd: -push %q: %v\n", spec, err)
				os.Exit(2)
			}
			net.ports[ap.Addr()] = ap.Port()
			wanted = append(wanted, subscription{dnsttl.NewName(zoneName), ap.Addr()})
		}
		sub := rs.EnablePush(dnsttl.PushConfig{
			Port:      addr.Port(),
			Net:       net,
			PollEvery: *pushPoll,
			Prefetch:  *pushPrefetch,
			Registry:  cfg.Registry,
			QueryLog:  qlogger.Tap("push"),
		})
		for _, w := range wanted {
			sub.Subscribe(w.origin, w.server)
		}
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		go func() {
			for now := range ticker.C {
				sub.Tick(now)
			}
		}()
		fmt.Printf("push plane: %d subscription(s), poll fallback %s, prefetch %v\n",
			len(wanted), sub.PollEvery(), *pushPrefetch)
	}
	if *metrics != "" {
		bound, closeMetrics, err := dnsttl.ServeMetrics(*metrics, cfg.Registry, cfg.Tracer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resolverd: metrics:", err)
			os.Exit(1)
		}
		defer closeMetrics()
		fmt.Printf("introspection on http://%s/metrics and /trace\n", bound)
	}
	if *frontends > 1 {
		fmt.Printf("resolver farm on udp://%s (%d frontends, %s cache, policy: %s, cap %ds, upstream %s)\n",
			addr, *frontends, topology, pol.Centricity, pol.TTLCap, kind)
	} else {
		fmt.Printf("recursive resolver on udp://%s (policy: %s, cap %ds, upstream %s)\n",
			addr, pol.Centricity, pol.TTLCap, kind)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Drain before summarising, so the summary counts the queries that were
	// in service when the signal came.
	if err := rs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "resolverd:", err)
	}
	st := client.CacheStats()
	fmt.Printf("\ncache: %d entries (%d bytes), %d hits, %d misses, %d evictions, %d prefetches\n",
		st.Entries, st.Bytes, st.Hits, st.Misses, st.Evictions, st.Prefetches)
	if fs, ok := client.FarmStats(); ok {
		fmt.Print(fs.String())
	}
}
