package loadgen

import (
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
	"dnsttl/internal/transport"
)

func TestParseWorkloadItems(t *testing.T) {
	w, err := ParseWorkload("www.example.org:A,api.example.org:AAAA,plain.example.org")
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if q := w.At(1); q.Type != dnswire.TypeAAAA {
		t.Errorf("item 1 type = %v, want AAAA", q.Type)
	}
	if q := w.At(2); q.Type != dnswire.TypeA {
		t.Errorf("bare item type = %v, want A (default)", q.Type)
	}
	// At wraps around the list.
	if w.At(0) != w.At(3) {
		t.Errorf("At should cycle mod Len")
	}
}

func TestParseWorkloadExpansion(t *testing.T) {
	w, err := ParseWorkload("q{i}.example.org:A*5")
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 5 {
		t.Fatalf("Len = %d, want 5", w.Len())
	}
	if got := w.At(3).Name.String(); got != "q3.example.org." {
		t.Errorf("expanded name = %q", got)
	}
	// A hot-name repeat without {i}.
	w, err = ParseWorkload("hot.example.org*4")
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 4 || w.At(0) != w.At(3) {
		t.Errorf("repeat expansion: len=%d", w.Len())
	}
}

func TestParseWorkloadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queries.txt")
	content := "# comment line\nwww.example.org A\nmail.example.org MX  # trailing comment\n\nbare.example.org\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := ParseWorkload("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if q := w.At(1); q.Type != dnswire.TypeMX {
		t.Errorf("file item 1 type = %v, want MX", q.Type)
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	for _, spec := range []string{"", "   ", "name:BOGUSTYPE", ":A", "name*0", "name*x", "@/nonexistent/path", "a..b", strings.Repeat("x", 64) + ".example"} {
		if _, err := ParseWorkload(spec); err == nil {
			t.Errorf("ParseWorkload(%q) should fail", spec)
		}
	}
}

// echoServer answers any query with QR + NOERROR over loopback UDP, after
// edit (if any) has had the reply.
func echoServer(t *testing.T, edit ...func(resp []byte)) netip.AddrPort {
	t.Helper()
	s := &authoritative.UDPServer{Handler: simnet.HandlerFunc(func(wire []byte, _ netip.Addr) []byte {
		resp := make([]byte, len(wire))
		copy(resp, wire)
		resp[2] |= 0x80
		for _, e := range edit {
			e(resp)
		}
		return resp
	})}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

func TestRunCountBounded(t *testing.T) {
	addr := echoServer(t)
	tr, err := transport.New(transport.Config{Kind: transport.UDP, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	wl, err := ParseWorkload("q{i}.example.org:A*50")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(nil)
	res, err := Run(Config{
		Target:        addr,
		Transport:     tr,
		TransportName: "udp",
		Workload:      wl,
		Workers:       4,
		Count:         200,
		Registry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 200 {
		t.Errorf("Sent = %d, want 200", res.Sent)
	}
	if res.NoError != 200 {
		t.Errorf("NoError = %d, want 200 (timeouts=%d net=%d bad=%d)",
			res.NoError, res.Timeouts, res.NetErrors, res.BadMessages)
	}
	if res.Errors != 0 {
		t.Errorf("Errors = %d, want 0", res.Errors)
	}
	if res.QPS <= 0 {
		t.Errorf("QPS = %f, want > 0", res.QPS)
	}
	if res.LatencyMsP50 <= 0 || res.LatencyMsP99 < res.LatencyMsP50 {
		t.Errorf("quantiles look wrong: p50=%f p99=%f", res.LatencyMsP50, res.LatencyMsP99)
	}
	if res.Transport != "udp" {
		t.Errorf("Transport = %q", res.Transport)
	}
	// The obs mirrors saw the same counts.
	snap := reg.Snapshot()
	if snap.Counters[MetricSent] != 200 || snap.Counters[MetricNoError] != 200 {
		t.Errorf("registry mirror: sent=%d noerror=%d", snap.Counters[MetricSent], snap.Counters[MetricNoError])
	}
}

func TestRunDurationBounded(t *testing.T) {
	addr := echoServer(t)
	tr, err := transport.New(transport.Config{Kind: transport.UDP, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	wl, _ := ParseWorkload("www.example.org:A")
	res, err := Run(Config{
		Target:    addr,
		Transport: tr,
		Workload:  wl,
		Workers:   2,
		Duration:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Errorf("duration-bounded run sent nothing")
	}
	if res.Seconds < 0.25 || res.Seconds > 5 {
		t.Errorf("Seconds = %f, want ~0.3", res.Seconds)
	}
}

func TestRunQPSPacing(t *testing.T) {
	addr := echoServer(t)
	tr, err := transport.New(transport.Config{Kind: transport.UDP, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	wl, _ := ParseWorkload("www.example.org:A")
	// 100 queries at 500 qps should take about 200ms, never finish "instantly".
	start := time.Now()
	res, err := Run(Config{
		Target:    addr,
		Transport: tr,
		Workload:  wl,
		Workers:   8,
		Count:     100,
		QPS:       500,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Errorf("paced run finished in %v, pacing not applied", elapsed)
	}
	if res.QPS > 700 {
		t.Errorf("QPS = %f, want ≈500 under pacing", res.QPS)
	}
}

func TestRunConfigValidation(t *testing.T) {
	tr, _ := transport.New(transport.Config{Kind: transport.UDP})
	defer tr.Close()
	wl, _ := ParseWorkload("www.example.org:A")
	if _, err := Run(Config{Workload: wl, Count: 1}); err == nil {
		t.Errorf("nil Transport should fail")
	}
	if _, err := Run(Config{Transport: tr, Count: 1}); err == nil {
		t.Errorf("nil Workload should fail")
	}
	if _, err := Run(Config{Transport: tr, Workload: wl}); err == nil {
		t.Errorf("missing Count and Duration should fail")
	}
}

// TestRunRejectsForeignQuestion: a reply with the query's ID but another
// question is a bad message, not an answer.
func TestRunRejectsForeignQuestion(t *testing.T) {
	addr := echoServer(t, func(resp []byte) { resp[13] = 'x' }) // first qname letter
	tr, err := transport.New(transport.Config{Kind: transport.UDP, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	wl, _ := ParseWorkload("www.example.org:A")
	res, err := Run(Config{Target: addr, Transport: tr, Workload: wl, Workers: 2, Count: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.BadMessages != 10 || res.NoError != 0 {
		t.Errorf("bad messages %d, noerror %d; want 10 and 0", res.BadMessages, res.NoError)
	}
}

// TestRunAgainstDeadServer classifies unanswered queries as timeouts, which
// count toward Errors.
func TestRunAgainstDeadServer(t *testing.T) {
	tr, err := transport.New(transport.Config{Kind: transport.UDP, Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	wl, _ := ParseWorkload("www.example.org:A")
	res, err := Run(Config{
		Target:    netip.MustParseAddrPort("127.0.0.1:9"), // discard port, nothing listens
		Transport: tr,
		Workload:  wl,
		Workers:   2,
		Count:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 4 {
		t.Errorf("Errors = %d, want 4 (timeouts=%d net=%d)", res.Errors, res.Timeouts, res.NetErrors)
	}
}

// FuzzParseWorkload: parsing a -workload spec never panics, and a workload
// it accepts is non-empty with every query name valid on the wire. A spec
// led by '@' has its remainder written to a file, so the file grammar is
// fuzzed too. Expansion is linear in the "*count" total by design, so specs
// asking for more than maxFuzzQueries queries are skipped.
func FuzzParseWorkload(f *testing.F) {
	const maxFuzzQueries = 100_000
	for _, s := range []string{
		"www.example.org:A,api.example.org:AAAA,plain.example.org", "q{i}.example.org:A*100", "hot.example.org*4",
		"@# comment\nwww.example.org A\nmail.example.org MX\n", "@a..b", "a..b", "x{i}*3", ",", "name*0",
		strings.Repeat("x", 64) + ".example", strings.Repeat("abcdefg.", 32) + "{i}*11",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		total := 0
		for _, item := range strings.Split(spec, ",") {
			if _, n, ok := strings.Cut(strings.TrimSpace(item), "*"); ok {
				if c, err := strconv.Atoi(n); err == nil && c > 0 {
					if c > maxFuzzQueries-total {
						t.Skip("expansion past the fuzz bound")
					}
					total += c
				}
			}
		}
		if rest, ok := strings.CutPrefix(strings.TrimSpace(spec), "@"); ok {
			path := filepath.Join(t.TempDir(), "workload")
			if err := os.WriteFile(path, []byte(rest), 0o644); err != nil {
				t.Fatal(err)
			}
			spec = "@" + path
		}
		w, err := ParseWorkload(spec)
		if err != nil {
			return
		}
		if w.Len() == 0 {
			t.Fatalf("%q: accepted an empty workload", spec)
		}
		for i := 0; i < w.Len(); i++ {
			if err := w.At(i).Name.Valid(); err != nil {
				t.Fatalf("%q: query %d name %q: %v", spec, i, w.At(i).Name, err)
			}
		}
	})
}
