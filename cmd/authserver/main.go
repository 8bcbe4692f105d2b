// Command authserver serves one or more zone files authoritatively over
// UDP and TCP on one address, using the library's server.
//
// Usage:
//
//	authserver -listen 127.0.0.1:5353 -zone example.org=example.org.zone
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"dnsttl"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/qlog"
	"dnsttl/internal/zone"
)

// setKey identifies one RRset.
type setKey struct {
	name dnsttl.Name
	typ  dnsttl.Type
}

// setFingerprint renders an RRset for equality checks. The apex SOA's
// serial is zeroed out: a push feed owns the live zone's serial, so a
// serial-only difference in the reloaded file is not a change.
func setFingerprint(s *zone.RRSet, origin dnsttl.Name) string {
	parts := make([]string, 0, len(s.RRs))
	for _, rr := range s.RRs {
		data := rr.Data
		if soa, ok := data.(dnswire.SOA); ok && rr.Name == origin {
			soa.Serial = 0
			data = soa
		}
		parts = append(parts, fmt.Sprintf("%d|%v", rr.TTL, data))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// applyZoneDiff mutates live until it matches fresh, returning the number
// of RRsets changed. Each mutation routes through the zone's watcher, so
// with -push every one becomes a feed delta and a NOTIFY fan-out.
func applyZoneDiff(live, fresh *dnsttl.Zone) int {
	origin := live.Origin
	want := map[setKey]*zone.RRSet{}
	var order []setKey
	for _, s := range fresh.AllSets() {
		k := setKey{s.Name, s.Type}
		want[k] = s
		order = append(order, k)
	}
	have := map[setKey]*zone.RRSet{}
	var gone []setKey
	for _, s := range live.AllSets() {
		k := setKey{s.Name, s.Type}
		have[k] = s
		if want[k] == nil {
			gone = append(gone, k)
		}
	}
	changed := 0
	for _, k := range order {
		ws := want[k]
		if hs := have[k]; hs != nil && setFingerprint(hs, origin) == setFingerprint(ws, origin) {
			continue
		}
		if err := live.Replace(k.name, k.typ, ws.RRs...); err != nil {
			fmt.Fprintf(os.Stderr, "authserver: reload %s/%v: %v\n", k.name, k.typ, err)
			continue
		}
		changed++
	}
	for _, k := range gone {
		if live.Remove(k.name, k.typ) {
			changed++
		}
	}
	return changed
}

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:5353", "UDP and TCP listen address")
		name         = flag.String("name", "ns1.example.org", "server's own name")
		metrics      = flag.String("metrics", "", "HTTP address for /metrics introspection (empty = off)")
		qlogPath     = flag.String("qlog", "", "structured query-log file; rotations shift to FILE.1.. (empty = off)")
		qlogMaxBytes = flag.Int64("qlog-max-bytes", 0, "rotate the query log past this size (0 = 64 MiB)")
		qlogFiles    = flag.Int("qlog-files", 0, "rotated query-log files kept, active included (0 = 4)")
		pushFeeds    = flag.Bool("push", false, "publish every zone as a change feed: accept subscriptions, NOTIFY subscribers on each change, serve IXFR pulls")
		rrl          = flag.String("rrl", "", "response rate limiting for UDP: \"default\" or \"rps=5,burst=15,slip=2,prefix4=24,prefix6=56\" (empty = off)")
		zones        []string
		qlogFormat   dnsttl.QueryLogFormat
	)
	flag.TextVar(&qlogFormat, "qlog-format", qlog.FormatJSONL, "query-log encoding: jsonl or binary")
	flag.Func("zone", "origin=path to a master file (repeatable)", func(v string) error {
		zones = append(zones, v)
		return nil
	})
	flag.Parse()

	if len(zones) == 0 {
		fmt.Fprintln(os.Stderr, "authserver: at least one -zone origin=path is required")
		os.Exit(2)
	}
	srv := dnsttl.NewServer(dnsttl.NewName(*name), nil)
	type loadedZone struct {
		origin string
		path   string
		z      *dnsttl.Zone
	}
	var loaded []loadedZone
	for _, spec := range zones {
		origin, path, ok := strings.Cut(spec, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "authserver: bad -zone %q (want origin=path)\n", spec)
			os.Exit(2)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "authserver:", err)
			os.Exit(1)
		}
		z, err := dnsttl.ParseZone(string(text), dnsttl.NewName(origin))
		if err != nil {
			fmt.Fprintf(os.Stderr, "authserver: %s: %v\n", path, err)
			os.Exit(1)
		}
		srv.AddZone(z)
		loaded = append(loaded, loadedZone{origin, path, z})
		fmt.Printf("loaded zone %s from %s\n", origin, path)
	}
	var reg *dnsttl.Registry
	if *metrics != "" {
		reg = dnsttl.NewRegistry(nil)
		srv.Instrument(reg)
	}
	if *rrl != "" {
		cfg, err := dnsttl.ParseRRLConfig(*rrl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "authserver:", err)
			os.Exit(2)
		}
		srv.EnableRRL(cfg)
		fmt.Printf("rrl: %g rps, burst %g, slip %d, /%d v4 /%d v6 aggregation\n",
			cfg.RPS, cfg.Burst, cfg.Slip, cfg.Prefix4, cfg.Prefix6)
	}
	var pa *dnsttl.PushAuthority
	if *pushFeeds {
		zs := make([]*dnsttl.Zone, len(loaded))
		for i, l := range loaded {
			zs[i] = l.z
		}
		var err error
		pa, err = srv.EnablePush(zs...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "authserver: push:", err)
			os.Exit(1)
		}
		pa.Instrument(reg)
		fmt.Printf("push plane: %d zone feed(s) published\n", len(zs))
	}
	// SIGHUP re-reads every zone file and applies the diff to the live
	// zones; with -push each applied RRset change NOTIFYs subscribers.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			for _, l := range loaded {
				text, err := os.ReadFile(l.path)
				if err != nil {
					fmt.Fprintln(os.Stderr, "authserver: reload:", err)
					continue
				}
				fresh, err := dnsttl.ParseZone(string(text), dnsttl.NewName(l.origin))
				if err != nil {
					fmt.Fprintf(os.Stderr, "authserver: reload %s: %v\n", l.path, err)
					continue
				}
				n := applyZoneDiff(l.z, fresh)
				fmt.Printf("reloaded %s: %d RRset change(s), serial %d\n", l.origin, n, l.z.Serial())
			}
		}
	}()
	if *qlogPath != "" {
		qlogger, err := dnsttl.NewQueryLog(dnsttl.QueryLogConfig{
			Path:     *qlogPath,
			Format:   qlogFormat,
			MaxBytes: *qlogMaxBytes,
			MaxFiles: *qlogFiles,
			Registry: reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "authserver: qlog:", err)
			os.Exit(1)
		}
		defer qlogger.Close()
		srv.AttachQueryLog(qlogger)
		fmt.Printf("query log: %s (%s)\n", *qlogPath, qlogFormat)
	}
	addr, err := srv.ListenUDP(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "authserver:", err)
		os.Exit(1)
	}
	// TCP on the port UDP got (port-53 practice): zone transfers, and the
	// retry a truncated or rate-limited UDP answer asks for.
	if _, err := srv.ListenTCP(addr.String()); err != nil {
		fmt.Fprintln(os.Stderr, "authserver:", err)
		os.Exit(1)
	}
	fmt.Printf("serving on udp://%s and tcp://%s\n", addr, addr)
	if *metrics != "" {
		bound, closeMetrics, err := dnsttl.ServeMetrics(*metrics, reg, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "authserver: metrics:", err)
			os.Exit(1)
		}
		defer closeMetrics()
		fmt.Printf("introspection on http://%s/metrics\n", bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Drain before summarising, so the count includes the queries that were
	// in service when the signal came.
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "authserver:", err)
	}
	fmt.Printf("\n%d queries served\n", srv.QueryCount())
	if pa != nil {
		st := pa.Stats()
		fmt.Printf("push: %d change(s), %d notify(s) to %d subscriber(s), %d ixfr, %d axfr\n",
			st.Changes, st.Notifies, st.Subscribers, st.IXFRServed, st.AXFRServed)
	}
}
