package dnsttl

import (
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/push"
	"dnsttl/internal/qlog"
	"dnsttl/internal/simnet"
)

// queryA resolves name through the daemon at rd over real UDP and returns
// the first A answer.
func queryA(t *testing.T, rd netip.AddrPort, name string) string {
	t.Helper()
	q := dnswire.NewQuery(0x4242, NewName(name), TypeA)
	resp, _, err := simnet.Ask(loopbackNet(t, rd.Port()), netip.Addr{}, rd.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range resp.Answer {
		if a, ok := rr.Data.(dnswire.A); ok {
			return a.Addr.String()
		}
	}
	return ""
}

// TestPushEndToEnd closes the push plane over real loopback sockets: a live
// authoritative server publishes example.org's change feed, a recursive
// daemon subscribes, and a zone update propagates — NOTIFY out, IXFR pull
// back, targeted cache purge — well inside the record's TTL. The qlog
// notify records and the push.* registry counters must both witness it.
func TestPushEndToEnd(t *testing.T) {
	rootZone, err := ParseZone(rootZoneText, NewName("."))
	if err != nil {
		t.Fatal(err)
	}
	orgZone, err := ParseZone(orgZoneText, NewName("example.org"))
	if err != nil {
		t.Fatal(err)
	}
	auth := NewServer(NewName("a.root-servers.net"), nil)
	auth.AddZone(rootZone)
	auth.AddZone(orgZone)
	pa, err := auth.EnablePush(orgZone)
	if err != nil {
		t.Fatal(err)
	}
	authAddr, err := auth.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer auth.Close()

	logPath := filepath.Join(t.TempDir(), "push.qlog")
	reg := NewRegistry(nil)
	qlogger, err := NewQueryLog(QueryLogConfig{Path: logPath})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		Roots: []netip.Addr{authAddr.Addr()},
		Net:   loopbackNet(t, authAddr.Port()),
	})
	if err != nil {
		t.Fatal(err)
	}
	rd := &RecursiveServer{Client: client}
	rdAddr, err := rd.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	sub := rd.EnablePush(PushConfig{
		Port:     rdAddr.Port(),
		Net:      loopbackNet(t, authAddr.Port()),
		Registry: reg,
		QueryLog: qlogger.Tap("push"),
	})
	sub.Subscribe(NewName("example.org"), authAddr.Addr())
	if st := sub.Stats(); st.Subscribes != 1 {
		t.Fatalf("subscribes = %d, want 1 (stats %+v)", st.Subscribes, st)
	}

	// Warm the cache, then prove it's serving from cache.
	if got := queryA(t, rdAddr, "www.example.org"); got != "192.0.2.80" {
		t.Fatalf("initial answer = %q, want 192.0.2.80", got)
	}
	authQBefore := auth.QueryCount()
	if got := queryA(t, rdAddr, "www.example.org"); got != "192.0.2.80" {
		t.Fatalf("cached answer = %q", got)
	}
	if n := auth.QueryCount(); n != authQBefore {
		t.Fatalf("cached lookup still hit the authoritative (%d -> %d queries)", authQBefore, n)
	}

	// The update: well inside www's 300 s TTL, so only the push plane can
	// make the daemon notice.
	if err := orgZone.Replace(NewName("www.example.org"), TypeA,
		dnswire.NewA("www.example.org", 300, "192.0.2.81")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for sub.Stats().Purged == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("purge never arrived: sub stats %+v, authority stats %+v",
				sub.Stats(), pa.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := queryA(t, rdAddr, "www.example.org"); got != "192.0.2.81" {
		t.Fatalf("post-update answer = %q, want 192.0.2.81 (TTL had ~300 s left)", got)
	}

	// Both halves witnessed the exchange.
	ss := sub.Stats()
	if ss.Notifies == 0 || ss.IXFR == 0 || ss.Purged == 0 {
		t.Errorf("subscriber stats %+v, want notify+ixfr+purge", ss)
	}
	as := pa.Stats()
	if as.Changes != 1 || as.Notifies == 0 || as.IXFRServed == 0 || as.Subscribers != 1 {
		t.Errorf("authority stats %+v, want 1 change notified and pulled", as)
	}

	// The registry mirrored the subscriber counters.
	snap := reg.Snapshot()
	for _, name := range []string{push.MetricNotifies, push.MetricIXFR, push.MetricPurged, push.MetricSubscribes} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
	}

	// And the query log holds the notify-in record: zone origin in Name,
	// the advertised serial (2 after one change) in TTL.
	if err := qlogger.Close(); err != nil {
		t.Fatal(err)
	}
	recs, decodeErrs, err := ReadQueryLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if decodeErrs != 0 {
		t.Fatalf("decode errors = %d", decodeErrs)
	}
	notifies := 0
	for i := range recs {
		r := &recs[i]
		if r.Point != qlog.PointNotify {
			continue
		}
		notifies++
		if r.Name != NewName("example.org") || r.TTL != 2 || r.Transport != "push" {
			t.Errorf("notify record = %+v, want example.org serial 2 via push", r)
		}
	}
	if notifies == 0 {
		t.Error("no notify records in the query log")
	}
}
