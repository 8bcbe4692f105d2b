// Command dnsq is a dig-like query tool over the library's wire codec and
// real-socket transports (UDP, TCP, DoT, DoH).
//
// Usage:
//
//	dnsq -server 127.0.0.1 -port 5353 www.example.org A
//	dnsq -transport dot -insecure -server 127.0.0.1 -port 8853 www.example.org A
//	dnsq -trace -server 127.0.0.1 -port 5353 www.example.org A
//
// With -trace, dnsq iterates from the server itself (dig +trace style,
// treating -server as the sole root hint) and prints the resolution's full
// lifecycle as a span tree: cache lookup, per-zone iteration steps, and
// each upstream exchange with its RTT and TTL decisions.
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"time"

	"dnsttl"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

func main() {
	var (
		server   = flag.String("server", "127.0.0.1", "server address")
		port     = flag.Uint("port", 0, "server port (0 = transport default: 53/53/853/443)")
		timeout  = flag.Duration("timeout", 3*time.Second, "query timeout")
		rd       = flag.Bool("rd", true, "set the recursion-desired flag")
		insecure = flag.Bool("insecure", false, "skip TLS verification for dot/doh (self-signed test certs)")
		trace    = flag.Bool("trace", false, "iterate from -server like dig +trace and print the span tree")
		retries  = flag.Int("retries", 0, "with -trace: upstream attempts per step (0 = single-shot)")
		hedge    = flag.Duration("hedge", 0, "with -trace: hedge delay for a second query to the next-best server (0 = off)")
		kind     dnsttl.TransportKind
	)
	flag.TextVar(&kind, "transport", dnsttl.TransportUDP, "transport: udp, tcp, dot, or doh")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: dnsq [flags] name [type]")
		os.Exit(2)
	}
	name := dnsttl.NewName(flag.Arg(0))
	qtype := dnsttl.TypeA
	if flag.NArg() > 1 {
		t, err := dnswire.ParseType(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnsq:", err)
			os.Exit(2)
		}
		qtype = t
	}

	addr, err := netip.ParseAddr(*server)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsq:", err)
		os.Exit(2)
	}
	dstPort := uint16(*port)
	if dstPort == 0 {
		dstPort = kind.DefaultPort()
	}
	tnet, err := dnsttl.NewTransportNet(kind, dnsttl.TransportOptions{
		Port: dstPort, Timeout: *timeout, Insecure: *insecure,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsq:", err)
		os.Exit(1)
	}
	defer tnet.Close()
	if *trace {
		rp := dnsttl.RetryPolicy{Attempts: *retries, Hedge: *hedge}
		if *retries > 0 {
			rp.Backoff = 250 * time.Millisecond
			rp.Jitter = 0.5
		}
		runTrace(tnet, addr, dstPort, name, qtype, rp)
		return
	}
	q := dnswire.NewQuery(uint16(time.Now().UnixNano()), name, qtype)
	q.Header.RD = *rd
	resp, rtt, err := simnet.Ask(tnet, netip.Addr{}, addr, q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsq:", err)
		os.Exit(1)
	}
	fmt.Print(resp)
	fmt.Printf(";; Query time: %v\n;; SERVER: %s#%d (%s)\n", rtt.Round(time.Microsecond), *server, dstPort, kind)
}

// runTrace resolves the name iteratively on the client side, dig +trace
// style: the given server is the only root hint, and every lifecycle step
// the library records — cache lookup, zone-by-zone iteration, individual
// upstream exchanges with RTTs and TTL decisions — is printed as a span
// tree. port is tnet's server port, printed with the root hint.
func runTrace(tnet *dnsttl.TransportNet, root netip.Addr, port uint16, name dnsttl.Name, qtype dnsttl.Type, rp dnsttl.RetryPolicy) {
	pol := dnsttl.DefaultPolicy()
	pol.Retry = rp
	client, err := dnsttl.NewClient(dnsttl.ClientConfig{
		Policy: pol,
		Roots:  []netip.Addr{root},
		Net:    tnet,
		Tracer: dnsttl.NewTracer(nil),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsq:", err)
		os.Exit(1)
	}
	res, err := client.Lookup(name, qtype)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnsq:", err)
		os.Exit(1)
	}
	if res.Span != nil {
		fmt.Print(res.Span.String())
	}
	fmt.Println()
	fmt.Print(res.Msg)
	fmt.Printf(";; Query time: %v\n;; ROOT HINT: %s#%d\n", res.Latency.Round(time.Microsecond), root, port)
}
