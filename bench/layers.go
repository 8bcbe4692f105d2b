package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dnsttl"
	"dnsttl/internal/authoritative"
	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/farm"
	"dnsttl/internal/middleware"
	"dnsttl/internal/qlog"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/transport"
	wl "dnsttl/internal/workload"
	"dnsttl/internal/zone"
)

// The layer table times one public function per row, from outside, on one
// goroutine, at a fixed iteration count, with the workloads' own query and
// response wires as inputs. Rows whose inputs are consumed (a miss can
// happen once per name) take fresh names every iteration.

// hardenedSpec is the abuse-hardened frontend of docs/middleware.md with
// the limiter opened wide, so that the row times the traversal down to the
// resolver and not a refusal.
const hardenedSpec = `
entry = "shield"

[stage.shield]
type   = "blocklist"
block  = "ads.example.test"
action = "nxdomain"
next   = "guard"

[stage.guard]
type   = "ratelimit"
qps    = 1000000000
burst  = 1000000000
action = "refuse"
next   = "resolve"

[stage.resolve]
type = "resolver"
`

const (
	layerHitNames = 1000
	layerMisses   = 20_000 // distinct names each miss row consumes
	layerRounds   = 10
	serveOps      = 10_000 // iterations per round of the ServeDNS rows
)

// timeOp calls fn rounds*n times, i counting up across rounds, and returns
// the quietest round's ns per call (interference only ever adds to a round)
// and the allocations per call overall.
func timeOp(rounds, n int, fn func(i int)) (ns, allocs float64) {
	var ms0, ms1 runtime.MemStats
	ns = math.Inf(1)
	runtime.ReadMemStats(&ms0)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := r * n; i < (r+1)*n; i++ {
			fn(i)
		}
		ns = min(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	return ns, float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds*n)
}

// layerWorld is the in-memory counterpart of a live stack: the same zones
// behind an authoritative server on a simnet network.
type layerWorld struct {
	net        *simnet.Network
	auth       *authoritative.Server
	leaf       *zone.Zone
	serverAddr netip.Addr
	names      []dnswire.Name // the hit population
	nextMiss   int            // next unused name index for miss rows
}

func newLayerWorld() (*layerWorld, error) {
	total := layerHitNames + 3*layerMisses
	root, leaf, err := buildZones(total, constTTL(86400))
	if err != nil {
		return nil, err
	}
	w := &layerWorld{net: simnet.NewNetwork(1), leaf: leaf, serverAddr: netip.MustParseAddr("192.0.2.53")}
	w.auth = authoritative.NewServer(dnswire.NewName("a.root-servers.net."), nil)
	w.auth.AddZone(root)
	w.auth.AddZone(leaf)
	w.net.Attach(w.serverAddr, w.auth)
	for i := 0; i < layerHitNames; i++ {
		w.names = append(w.names, hostName(i))
	}
	w.nextMiss = layerHitNames
	return w, nil
}

// misses hands out n name indices no other row has resolved.
func (w *layerWorld) misses(n int) int {
	first := w.nextMiss
	w.nextMiss += n
	return first
}

func (w *layerWorld) resolver() *resolver.Resolver {
	return resolver.New(netip.MustParseAddr("192.0.2.1"), resolver.DefaultPolicy(), w.net, nil,
		[]netip.Addr{w.serverAddr}, 1)
}

func (w *layerWorld) client(qlogTap *dnsttl.QueryLogTap) (*dnsttl.Client, error) {
	return dnsttl.NewClient(dnsttl.ClientConfig{
		Policy: dnsttl.DefaultPolicy(), Roots: []netip.Addr{w.serverAddr}, Net: w.net, QueryLog: qlogTap,
	})
}

// cannedReply is the canned reply as a handler; it drops any other query.
func cannedReply(wire []byte, _ netip.Addr) []byte {
	reply, ok := appendCannedReply(make([]byte, 0, len(wire)+16), wire)
	if !ok {
		return nil
	}
	return reply
}

// layerTable measures every row. Values are ns per call unless the name
// says otherwise.
func layerTable() (metrics, error) {
	out := metrics{}
	row := func(name string, withAllocs bool, rounds, n int, fn func(i int)) float64 {
		ns, allocs := timeOp(rounds, n, fn)
		out[name+"_ns"] = ns
		if withAllocs {
			out[name+"_allocs"] = allocs
		}
		return ns
	}
	w, err := newLayerWorld()
	if err != nil {
		return nil, err
	}
	from := netip.MustParseAddr("127.0.0.1")
	query := func(idx int, recursive bool) []byte {
		m := dnswire.NewIterativeQuery(uint16(idx), hostName(idx), dnswire.TypeA)
		m.Header.RD = recursive
		wire, err := dnswire.Encode(m)
		if err != nil {
			panic(err) // a fixed, valid message
		}
		return wire
	}
	hitQueries := make([][]byte, layerHitNames)
	for i := range hitQueries {
		hitQueries[i] = query(i, true)
	}
	hitQuery := func(i int) []byte { return hitQueries[i%layerHitNames] }
	hitName := func(i int) dnswire.Name { return w.names[i%layerHitNames] }

	// resolver, warmed so that every hit name is cached
	r := w.resolver()
	var hitMsg *dnswire.Message
	for _, name := range w.names {
		res, err := r.Resolve(name, dnswire.TypeA)
		if err != nil {
			return nil, fmt.Errorf("layer table warm-up: %w", err)
		}
		hitMsg = res.Msg
	}
	resolveHit := row("resolver.resolve_hit", true, layerRounds, 20_000, func(i int) {
		if _, err := r.Resolve(hitName(i), dnswire.TypeA); err != nil {
			panic(err)
		}
	})
	first := w.misses(layerMisses)
	upstream := 0
	row("resolver.resolve_leaf_miss", true, 1, layerMisses, func(i int) {
		res, err := r.Resolve(hostName(first+i), dnswire.TypeA)
		if err != nil {
			panic(err)
		}
		upstream += res.Queries
	})
	out["resolver.upstream_per_leaf_miss"] = float64(upstream) / layerMisses

	// dnswire, on the hit query and the hit response
	decode := row("dnswire.decode_query", true, layerRounds, 25_000, func(i int) {
		if _, err := dnswire.Decode(hitQuery(i)); err != nil {
			panic(err)
		}
	})
	dec, msg := dnswire.NewDecoder(), &dnswire.Message{}
	row("dnswire.decoder_reuse_query", false, layerRounds, 50_000, func(i int) {
		if err := dec.Decode(hitQuery(i), msg); err != nil {
			panic(err)
		}
	})
	encode := row("dnswire.encode_response", true, layerRounds, 25_000, func(int) {
		if _, err := dnswire.EncodeWithLimit(hitMsg, dnswire.MaxEDNSSize); err != nil {
			panic(err)
		}
	})
	buf := make([]byte, 0, 512)
	row("dnswire.append_encode_response", false, layerRounds, 25_000, func(int) {
		if _, err := dnswire.AppendEncode(buf, hitMsg); err != nil {
			panic(err)
		}
	})

	// cache
	entry := func(idx int, ttl uint32) cache.Entry {
		name := hostName(idx)
		return cache.Entry{
			Key: cache.Key{Name: name, Type: dnswire.TypeA}, TTL: ttl, Cred: cache.CredAnswerAuth,
			RRs: []dnswire.RR{{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
				Data: dnswire.A{Addr: hostAddr(idx)}}},
		}
	}
	const cacheOps = 20_000
	entries := make([]cache.Entry, layerRounds*cacheOps)
	for i := range entries {
		entries[i] = entry(i, 86400)
	}
	c := cache.New(nil, cache.Config{})
	row("cache.put_new", true, layerRounds, cacheOps, func(i int) { c.Put(entries[i]) })
	row("cache.get_hit", false, layerRounds, cacheOps, func(i int) {
		if _, _, ok := c.Get(entries[i].Key.Name, dnswire.TypeA); !ok {
			panic("cache.get_hit row missed")
		}
	})
	absent := hostName(maxNames - 1)
	row("cache.get_miss", false, layerRounds, cacheOps, func(int) { c.Get(absent, dnswire.TypeA) })
	clock := simnet.NewVirtualClock()
	expiring := cache.New(clock, cache.Config{})
	const expiringKeys = 1000
	for i := 0; i < expiringKeys; i++ {
		e := entries[i]
		e.TTL = 1
		expiring.Put(e)
	}
	row("cache.put_replace_expired", false, layerRounds, cacheOps, func(i int) {
		if i%expiringKeys == 0 {
			clock.Advance(2 * time.Second)
		}
		e := entries[i%expiringKeys]
		e.TTL = 1
		expiring.Put(e)
	})
	bounded := cache.New(nil, cache.Config{Capacity: expiringKeys, Eviction: cache.EvictLRU})
	for i := 0; i < expiringKeys; i++ {
		bounded.Put(entries[len(entries)-1-i])
	}
	row("cache.put_evict_lru", true, layerRounds, cacheOps, func(i int) { bounded.Put(entries[i]) })

	// middleware
	ctx := context.Background()
	def, err := middleware.Build("", middleware.Env{Lookup: r.Resolve})
	if err != nil {
		return nil, err
	}
	pipeline := row("middleware.default_pipeline", true, layerRounds, 20_000, func(i int) {
		if _, err := def.Resolve(ctx, &middleware.Query{Name: hitName(i), Type: dnswire.TypeA}); err != nil {
			panic(err)
		}
	})
	out["middleware.default_self_ns"] = pipeline - resolveHit
	hard, err := middleware.Build(hardenedSpec, middleware.Env{Lookup: r.Resolve})
	if err != nil {
		return nil, err
	}
	row("middleware.hardened_pipeline", true, layerRounds, 20_000, func(i int) {
		resp, err := hard.Resolve(ctx, &middleware.Query{Name: hitName(i), Type: dnswire.TypeA, Client: from})
		if err != nil || resp.Verdict != middleware.VerdictResolved {
			panic(fmt.Sprintf("hardened pipeline row: verdict %v, err %v", resp.Verdict, err))
		}
	})

	// farm: 8 frontends on one shared cache, coalescing on
	f := farm.New(farm.Config{Frontends: 8, Topology: farm.Shared, Coalesce: true,
		Policy: resolver.DefaultPolicy(), Seed: 1},
		netip.MustParseAddr("192.0.2.16"), w.net, nil, []netip.Addr{w.serverAddr})
	for _, name := range w.names {
		if _, err := f.Resolve(name, dnswire.TypeA); err != nil {
			return nil, fmt.Errorf("farm warm-up: %w", err)
		}
	}
	row("farm.resolve_hit_shared", true, layerRounds, 20_000, func(i int) {
		if _, err := f.Resolve(hitName(i), dnswire.TypeA); err != nil {
			panic(err)
		}
	})

	// the recursive server's handler, without a socket
	serveHit := func(cl *dnsttl.Client, ql *dnsttl.QueryLog) func(int) {
		rs := &dnsttl.RecursiveServer{Client: cl, QueryLog: ql}
		for i := range w.names {
			if rs.ServeDNS(hitQuery(i), from) == nil {
				panic("serve warm-up dropped a query")
			}
		}
		return func(i int) { rs.ServeDNS(hitQuery(i), from) }
	}
	plain, err := w.client(nil)
	if err != nil {
		return nil, err
	}
	serve := row("dnsttl.serve_hit", true, layerRounds, serveOps, serveHit(plain, nil))
	out["dnsttl.serve_hit_residual_ns"] = serve - decode - pipeline - encode
	first = w.misses(layerMisses)
	missServer := &dnsttl.RecursiveServer{Client: plain}
	row("dnsttl.serve_leaf_miss", true, 1, layerMisses, func(i int) {
		missServer.ServeDNS(query(first+i, true), from)
	})

	dir, err := os.MkdirTemp(".", ".bench_qlog")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ql, err := dnsttl.NewQueryLog(dnsttl.QueryLogConfig{Path: filepath.Join(dir, "q.bin"), Format: qlog.FormatBinary})
	if err != nil {
		return nil, err
	}
	logged, err := w.client(ql.Tap("udp"))
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	logNS, _ := timeOp(layerRounds, serveOps, serveHit(logged, ql))
	if err := ql.Close(); err != nil {
		return nil, fmt.Errorf("query log: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	out["qlog.serve_hit_overhead_ns"] = logNS - serve
	// The log's consumer goroutine allocates too, so the twin counts
	// everything up to Close.
	out["qlog.serve_hit_overhead_allocs"] = float64(ms1.Mallocs-ms0.Mallocs)/(layerRounds*serveOps) - out["dnsttl.serve_hit_allocs"]

	// authoritative server and zone
	answerQueries := make([][]byte, layerHitNames)
	for i := range answerQueries {
		answerQueries[i] = query(i, false)
	}
	row("authoritative.serve_answer", true, layerRounds, serveOps, func(i int) {
		w.auth.ServeDNS(answerQueries[i%layerHitNames], from)
	})
	rootOnly := authoritative.NewServer(dnswire.NewName("a.root-servers.net."), nil)
	rootOnly.AddZone(w.auth.Zone(dnswire.Root))
	row("authoritative.serve_referral", false, layerRounds, serveOps, func(i int) {
		rootOnly.ServeDNS(answerQueries[i%layerHitNames], from)
	})
	nxQuery := query(maxNames-1, false)
	row("authoritative.serve_nxdomain", false, layerRounds, serveOps, func(int) { w.auth.ServeDNS(nxQuery, from) })
	row("zone.lookup", false, layerRounds, 25_000, func(i int) {
		if res := w.leaf.Lookup(hitName(i), dnswire.TypeA); res.Kind != zone.Answer {
			panic("zone.lookup row did not find its name")
		}
	})

	// simnet and the workload generator
	src, dst := netip.MustParseAddr("192.0.2.2"), netip.MustParseAddr("192.0.2.99")
	w.net.Attach(dst, simnet.HandlerFunc(cannedReply))
	row("simnet.exchange", true, layerRounds, 25_000, func(i int) {
		if _, _, err := w.net.Exchange(src, dst, hitQuery(i)); err != nil {
			panic(err)
		}
	})
	g := wl.New(dnswire.NewName(benchOrigin), 200_000, zipfExponent, 1000, 1)
	row("workload.generator_next", false, layerRounds, 50_000, func(int) { g.Next() })

	// one client against a UDP listener that does no DNS work
	if err := listenerRows(out, hitQuery); err != nil {
		return nil, err
	}
	return out, nil
}

// listenerRows times a round trip through authoritative.UDPServer with the
// canned handler: once with a bare connected socket, once through
// transport.Transport.Exchange.
func listenerRows(out metrics, hitQuery func(int) []byte) error {
	u := &authoritative.UDPServer{Handler: simnet.HandlerFunc(cannedReply)}
	addr, err := u.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer u.Close()
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr))
	if err != nil {
		return err
	}
	defer conn.Close()
	const trips = 2_500
	buf := make([]byte, 512)
	var failure error
	roundTrip := func(i int) {
		_ = conn.SetReadDeadline(time.Now().Add(queryTimeout))
		if _, err := conn.Write(hitQuery(i)); err != nil {
			failure = err
			return
		}
		if _, err := conn.Read(buf); err != nil {
			failure = err
		}
	}
	out["authoritative.udp_floor_rtt_ns"], out["authoritative.udp_floor_rtt_allocs"] = timeOp(layerRounds, trips, roundTrip)
	if failure != nil {
		return fmt.Errorf("udp floor row: %w", failure)
	}
	t, err := transport.New(transport.Config{Kind: transport.UDP, Timeout: queryTimeout})
	if err != nil {
		return err
	}
	defer t.Close()
	out["transport.udp_exchange_ns"], out["transport.udp_exchange_allocs"] = timeOp(layerRounds, trips, func(i int) {
		if _, _, err := t.Exchange(addr, hitQuery(i)); err != nil {
			failure = err
		}
	})
	if failure != nil {
		return fmt.Errorf("transport exchange row: %w", failure)
	}
	return nil
}
