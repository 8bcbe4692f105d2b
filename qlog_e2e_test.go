package dnsttl

import (
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/entrada"
	"dnsttl/internal/qlog"
)

// TestQueryLogEndToEnd closes the observability loop over real sockets: an
// authoritative server and a recursive daemon both capture into one
// structured query log while a stub client drives traffic, then the log is
// read back, fed through entrada, and the hit rate it implies is checked
// against the resolver's own cache counters — the same agreement the
// qlog_smoke.sh CI job asserts against live daemons.
func TestQueryLogEndToEnd(t *testing.T) {
	auth := NewServer(NewName("a.root-servers.net"), nil)
	for origin, text := range map[string]string{".": rootZoneText, "example.org": orgZoneText} {
		z, err := ParseZone(text, NewName(origin))
		if err != nil {
			t.Fatal(err)
		}
		auth.AddZone(z)
	}
	logPath := filepath.Join(t.TempDir(), "e2e.qlog")
	reg := NewRegistry(nil)
	qlogger, err := NewQueryLog(QueryLogConfig{Path: logPath, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	auth.AttachQueryLog(qlogger)
	authAddr, err := auth.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer auth.Close()

	client, err := NewClient(ClientConfig{
		Roots:    []netip.Addr{authAddr.Addr()},
		Net:      loopbackNet(t, authAddr.Port()),
		Registry: reg,
		QueryLog: qlogger.Tap("udp"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rd := &RecursiveServer{Client: client, QueryLog: qlogger}
	rdAddr, err := rd.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	const total = 1000
	q := dnswire.NewQuery(0x5151, NewName("www.example.org"), TypeA)
	wire, err := Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	stub := stubTransport(t, TransportUDP)
	for i := 0; i < total; i++ {
		if _, _, err := stub.Exchange(rdAddr, wire); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	cacheStats := client.CacheStats()
	if err := qlogger.Close(); err != nil {
		t.Fatal(err)
	}

	recs, decodeErrs, err := ReadQueryLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if decodeErrs != 0 {
		t.Fatalf("decode errors = %d, want 0", decodeErrs)
	}

	// Every capture point must be present: client-in and response-out from
	// the daemon, upstream from the resolver, response-out from the
	// authoritative's UDP listener (the one record without a cache outcome).
	w := entrada.NewWarehouse()
	points := map[qlog.Point]int{}
	var hits, answered, authoritative int
	for i := range recs {
		r := &recs[i]
		points[r.Point]++
		if r.Point != qlog.PointResponseOut || r.Transport != "udp" {
			continue
		}
		switch r.Outcome {
		case qlog.OutcomeNone:
			authoritative++
			continue
		case qlog.OutcomeHit:
			hits++
			answered++
		case qlog.OutcomeMiss, qlog.OutcomeStale, qlog.OutcomeCoalesced:
			answered++
		}
		w.Ingest(entrada.Row{Time: time.Unix(0, r.Time), Resolver: r.Client, Name: r.Name, Type: r.Type})
	}
	if points[qlog.PointClientIn] != total {
		t.Errorf("client-in records = %d, want %d", points[qlog.PointClientIn], total)
	}
	if points[qlog.PointResponseOut] < total {
		t.Errorf("response-out records = %d, want >= %d", points[qlog.PointResponseOut], total)
	}
	if points[qlog.PointUpstream] == 0 {
		t.Error("no upstream records captured")
	}
	if authoritative == 0 {
		t.Error("no authoritative-side records captured")
	}

	// The log's hit rate must agree with the resolver's cache counters to
	// within one point (the counters also see infrastructure lookups).
	if answered != total {
		t.Fatalf("answered response-out records = %d, want %d", answered, total)
	}
	logRate := float64(hits) / float64(answered)
	cacheRate := float64(cacheStats.Hits) / float64(cacheStats.Hits+cacheStats.Misses)
	if diff := logRate - cacheRate; diff > 0.01 || diff < -0.01 {
		t.Errorf("hit rate from log %.4f vs cache counters %.4f: differ by more than one point", logRate, cacheRate)
	}

	// Entrada over the daemon's response-out records sees one (resolver,
	// qname) group holding every query.
	census := w.CentricityCensus()
	if census.Groups != 1 || census.UniqueResolvers != 1 {
		t.Errorf("census = %+v, want 1 group / 1 resolver", census)
	}
	if s := w.QueryCountSample(0); s.Len() != 1 || s.Quantile(0.5) != total {
		t.Errorf("queries per group = %v, want [%d]", s, total)
	}

	// The registry mirrored the pipeline accounting.
	snap := reg.Snapshot()
	if got := snap.Counters[qlog.MetricRecords]; got < uint64(len(recs)) {
		t.Errorf("%s = %d, want >= %d (records on disk)", qlog.MetricRecords, got, len(recs))
	}
	if got := snap.Counters[qlog.MetricWriteErrors]; got != 0 {
		t.Errorf("%s = %d, want 0", qlog.MetricWriteErrors, got)
	}
}

// TestServerQueryLogLabelsEachListener: the authoritative logs each query
// under the transport of the listener it arrived on, as the recursive daemon
// does — one UDP and one TCP query are one "udp" and one "tcp" record.
func TestServerQueryLogLabelsEachListener(t *testing.T) {
	auth := NewServer(NewName("ns1.example.org"), nil)
	z, err := ParseZone(orgZoneText, NewName("example.org"))
	if err != nil {
		t.Fatal(err)
	}
	auth.AddZone(z)
	logPath := filepath.Join(t.TempDir(), "auth.qlog")
	qlogger, err := NewQueryLog(QueryLogConfig{Path: logPath})
	if err != nil {
		t.Fatal(err)
	}
	auth.AttachQueryLog(qlogger)
	udpAddr, err := auth.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpAddr, err := auth.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := Encode(dnswire.NewQuery(1, NewName("www.example.org"), TypeA))
	if err != nil {
		t.Fatal(err)
	}
	for kind, addr := range map[TransportKind]netip.AddrPort{TransportUDP: udpAddr, TransportTCP: tcpAddr} {
		if _, _, err := stubTransport(t, kind).Exchange(addr, wire); err != nil {
			t.Fatalf("%v query: %v", kind, err)
		}
	}
	if err := auth.Close(); err != nil {
		t.Fatal(err)
	}
	if err := qlogger.Close(); err != nil {
		t.Fatal(err)
	}
	recs, bad, err := ReadQueryLog(logPath)
	if err != nil || bad != 0 {
		t.Fatalf("read: %d undecodable, err %v", bad, err)
	}
	labels := map[string]int{}
	for _, r := range recs {
		labels[r.Transport]++
	}
	if len(recs) != 2 || labels["udp"] != 1 || labels["tcp"] != 1 {
		t.Errorf("records by transport = %v, want one udp and one tcp", labels)
	}
}
