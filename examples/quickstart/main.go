// The quickstart example runs an authoritative server on loopback UDP,
// resolves a name through the library's caching resolver twice, and shows
// the cache cutting the second lookup's latency — the paper's core
// observation in twenty lines.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"dnsttl"
)

const rootZone = `
$ORIGIN .
@                   86400 IN SOA a.root-servers.net. ops.example. 1 1800 900 604800 86400
@                   518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 127.0.0.1
example.org.        172800 IN NS ns1.example.org.
ns1.example.org.    172800 IN A 127.0.0.1
`

const orgZone = `
$ORIGIN example.org.
@    3600 IN SOA ns1 admin 1 7200 3600 1209600 300
@    3600 IN NS ns1
ns1  3600 IN A 127.0.0.1
www  300  IN A 192.0.2.80
`

func main() {
	// One process plays the whole hierarchy: root and example.org.
	srv := dnsttl.NewServer(dnsttl.NewName("a.root-servers.net"), nil)
	for origin, text := range map[string]string{".": rootZone, "example.org": orgZone} {
		z, err := dnsttl.ParseZone(text, dnsttl.NewName(origin))
		if err != nil {
			log.Fatal(err)
		}
		srv.AddZone(z)
	}
	addr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("authoritative server on %s\n\n", addr)

	// The library default is real UDP on port 53; the loopback server sits
	// on an ephemeral port, so build the pooled net for that port.
	udp, err := dnsttl.NewTransportNet(dnsttl.TransportUDP,
		dnsttl.TransportOptions{Port: addr.Port(), Timeout: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer udp.Close()
	client, err := dnsttl.NewClient(dnsttl.ClientConfig{
		Roots: []netip.Addr{addr.Addr()},
		Net:   udp,
	})
	if err != nil {
		log.Fatal(err)
	}

	for i := 1; i <= 2; i++ {
		res, err := client.Lookup(dnsttl.NewName("www.example.org"), dnsttl.TypeA)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("lookup %d: ttl=%ds cacheHit=%v upstreamQueries=%d latency=%v\n",
			i, res.AnswerTTL, res.CacheHit, res.Queries, res.Latency.Round(time.Microsecond))
		for _, rr := range res.Msg.Answer {
			fmt.Println("  ", rr)
		}
	}
	st := client.CacheStats()
	fmt.Printf("\ncache: %d entries, %d hits, %d misses\n", st.Entries, st.Hits, st.Misses)
}
