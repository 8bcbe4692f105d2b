package resolver

import (
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// TestResolverMetrics checks the registry view of a cold-then-warm
// resolution pair: one iteration's worth of upstream queries, then a pure
// cache hit, in the latency, upstream-RTT and answer-TTL histograms. The
// per-resolution counts are a farm's, so a bare resolver publishes none.
func TestResolverMetrics(t *testing.T) {
	tn := newTestNet(t)
	reg := obs.NewRegistry(tn.clock)
	r := tn.resolver(DefaultPolicy(), 1)
	r.Obs = NewMetrics(reg)

	cold := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	warm := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if cold.CacheHit || !warm.CacheHit {
		t.Fatalf("expected cold then warm: %v %v", cold.CacheHit, warm.CacheHit)
	}

	s := reg.Snapshot()
	for _, name := range []string{MetricResolutions, MetricCacheHits, MetricUpstream} {
		if _, ok := s.Counters[name]; ok {
			t.Fatalf("a bare resolver published %s", name)
		}
	}
	lat := s.Histograms[MetricLatency]
	if lat.Count != 2 {
		t.Fatalf("latency count = %d, want 2", lat.Count)
	}
	wantMax := float64(cold.Latency) / float64(time.Millisecond)
	if lat.Max != wantMax {
		t.Fatalf("latency max = %v ms, want %v ms", lat.Max, wantMax)
	}
	rtt := s.Histograms[MetricUpstreamRTT]
	if rtt.Count != uint64(cold.Queries) || rtt.Count == 0 {
		t.Fatalf("upstream RTT count = %d, want %d", rtt.Count, cold.Queries)
	}
	ttl := s.Histograms[MetricAnswerTTL]
	if ttl.Count != 2 || ttl.Max != 300 {
		t.Fatalf("answer TTL histogram = %+v, want 2 observations with max 300", ttl)
	}
	// The warm answer's TTL decayed relative to the cold one only if the
	// clock moved; with constant latency on a virtual clock both are ≤ 300.
	if ttl.Min > 300 {
		t.Fatalf("answer TTL min = %v, want ≤ 300", ttl.Min)
	}
}

// TestResolverTraceTree checks the query-lifecycle trace of a cold
// resolution: a cache miss, one step per delegation level with its
// exchanges, and the terminal annotations.
func TestResolverTraceTree(t *testing.T) {
	tn := newTestNet(t)
	tr := obs.NewTracer(tn.clock)
	r := tn.resolver(DefaultPolicy(), 1)
	r.Tracer = tr

	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if res.Span == nil {
		t.Fatal("resolution with a tracer attached carried no span")
	}
	sp, ok := tr.Find("www.cachetest.net")
	if !ok || sp != res.Span {
		t.Fatal("tracer did not retain the resolution's root span")
	}

	out := sp.String()
	for _, want := range []string{
		"resolve www.cachetest.net. A",
		"cache lookup", "outcome=miss",
		"zone=.", "zone=net.", "zone=cachetest.net.",
		"exchange", "server=198.41.0.4", "rtt_us=",
		"outcome=referral", "outcome=answer",
		"rcode=NOERROR", "answer_ttl_s=300",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	steps := 0
	sp.Walk(func(_ int, s *obs.Span) {
		if s.Name == "step" {
			steps++
		}
	})
	if steps < 3 {
		t.Fatalf("cold resolution recorded %d steps, want ≥ 3 (root, net, cachetest):\n%s", steps, out)
	}
	// simnet reports RTTs without advancing the virtual clock, so span
	// durations are zero here; Keep must still have finished the root.
	if sp.End.IsZero() {
		t.Fatal("retained root span was never finished")
	}

	// A warm re-resolution replaces the retained trace with the hit path.
	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	sp2, _ := tr.Find("www.cachetest.net")
	if sp2 == sp {
		t.Fatal("warm resolution did not replace the retained trace")
	}
	if out := sp2.String(); !strings.Contains(out, "outcome=hit") {
		t.Fatalf("warm trace missing cache hit:\n%s", out)
	}
}

// TestCacheNegativeTTLDecision pins the RFC 2308 TTL choice cacheNegative
// reports to the trace: SOA-derived when the response carries one, the
// policy fallback otherwise, both clamped by the policy cap.
func TestCacheNegativeTTLDecision(t *testing.T) {
	tn := newTestNet(t)
	pol := DefaultPolicy()
	pol.TTLCap = 100
	r := tn.resolver(pol, 1)
	now := tn.clock.Now()

	withSOA := &dnswire.Message{}
	withSOA.AddAuthority(dnswire.NewSOA("cachetest.net", 3600, "ns1.cachetest.net",
		"admin.cachetest.net", 1, 7200, 3600, 1209600, 60))
	ttl, fromSOA := r.cacheNegative(withSOA, dnswire.NewName("gone.cachetest.net"),
		dnswire.TypeA, 1, now)
	if !fromSOA || ttl != 60 {
		t.Fatalf("SOA negative: ttl=%d fromSOA=%v, want 60 true", ttl, fromSOA)
	}

	// No SOA: the fixed fallback, still clamped.
	ttl, fromSOA = r.cacheNegative(&dnswire.Message{}, dnswire.NewName("gone2.cachetest.net"),
		dnswire.TypeA, 1, now)
	if fromSOA || ttl != negTTLFallback {
		t.Fatalf("fallback negative: ttl=%d fromSOA=%v, want %d false", ttl, fromSOA, negTTLFallback)
	}

	// The cap trims a long SOA minimum like any other TTL.
	long := &dnswire.Message{}
	long.AddAuthority(dnswire.NewSOA("cachetest.net", 3600, "ns1.cachetest.net",
		"admin.cachetest.net", 1, 7200, 3600, 1209600, 900))
	ttl, _ = r.cacheNegative(long, dnswire.NewName("gone3.cachetest.net"), dnswire.TypeA, 1, now)
	if ttl != 100 {
		t.Fatalf("capped negative ttl = %d, want 100", ttl)
	}
}

// TestNXDomainTraceAnnotations checks the negative path end to end: the
// step span records the outcome and the TTL decision source.
func TestNXDomainTraceAnnotations(t *testing.T) {
	tn := newTestNet(t)
	tr := obs.NewTracer(tn.clock)
	r := tn.resolver(DefaultPolicy(), 1)
	r.Tracer = tr

	res := mustResolve(t, r, "nope.cachetest.net", dnswire.TypeA)
	if res.Msg.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %s, want NXDOMAIN", res.Msg.Header.RCode)
	}
	out := res.Span.String()
	for _, want := range []string{"outcome=nxdomain", "neg_ttl_source=soa-minimum", "neg_ttl_s=60"} {
		if !strings.Contains(out, want) {
			t.Fatalf("negative trace missing %q:\n%s", want, out)
		}
	}
}

// TestResolverObsAllocFree pins the telemetry cost on the resolver hot
// path: booking a completed resolution into the registry allocates nothing,
// and a warm resolution with metrics attached allocates no more than one
// without (tracing off is the production configuration being priced).
func TestResolverObsAllocFree(t *testing.T) {
	tn := newTestNet(t)
	reg := obs.NewRegistry(tn.clock)
	m := NewMetrics(reg)
	res := &Result{Msg: &dnswire.Message{}}
	res.Msg.AddAnswer(dnswire.NewA("www.cachetest.net", 300, "192.0.2.80"))
	res.Latency = 20 * time.Millisecond
	res.Queries = 3
	res.CacheHit = true
	if allocs := testing.AllocsPerRun(200, func() { m.observeResolution(res) }); allocs >= 0.5 {
		t.Errorf("observeResolution: %.2f allocs/op, want 0", allocs)
	}

	bare := tn.resolver(DefaultPolicy(), 1)
	mustResolve(t, bare, "www.cachetest.net", dnswire.TypeA)
	instrumented := tn.resolver(DefaultPolicy(), 2)
	instrumented.Obs = NewMetrics(reg)
	mustResolve(t, instrumented, "www.cachetest.net", dnswire.TypeA)

	name := dnswire.NewName("www.cachetest.net")
	warm := func(r *Resolver) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, withObs := warm(bare), warm(instrumented)
	if withObs > base+0.5 {
		t.Errorf("metrics added allocations to the warm path: %.2f vs %.2f allocs/op", withObs, base)
	}
}

// TestRetryPlaneObservability drives the retry plane through a flapping
// authoritative and checks its full telemetry surface: the new counters and
// histograms in the registry, the /metrics endpoint, and the span
// annotations (backoff_us, retries, failure detail) the trace carries.
func TestRetryPlaneObservability(t *testing.T) {
	tn := newTestNet(t)
	tn.net.Clock = tn.clock
	tn.net.Faults = simnet.NewFaultSchedule(
		simnet.Flap(tn.ctAddr, 0, 0, 10*time.Second, 0.5))
	reg := obs.NewRegistry(tn.clock)
	tr := obs.NewTracer(tn.clock)
	pol := DefaultPolicy()
	pol.Retry = RetryPolicy{Attempts: 3, Backoff: 6 * time.Second, OrderBySRTT: true}
	r := tn.resolver(pol, 3)
	r.Obs = NewMetrics(reg)
	r.Tracer = tr

	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (two down-phase attempts)", res.Retries)
	}

	s := reg.Snapshot()
	if got := s.Counters[MetricRetries]; got != uint64(res.Retries) {
		t.Errorf("%s = %d, want %d", MetricRetries, got, res.Retries)
	}
	if b := s.Histograms[MetricBackoff]; b.Count != uint64(res.Retries) {
		t.Errorf("%s count = %d, want %d (one observation per backoff)", MetricBackoff, b.Count, res.Retries)
	}
	if h := s.Histograms[MetricSRTT]; h.Count == 0 {
		t.Errorf("%s empty; successful exchanges must feed the SRTT histogram", MetricSRTT)
	}

	out := res.Span.String()
	for _, want := range []string{"retries=2", "backoff_us=", "srtt_us=", "error=timeout"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}

	// The live endpoint exposes the same names.
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	obs.NewHandler(reg, tr, nil).ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{MetricRetries, MetricHedges, MetricSRTT, MetricBackoff} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestHedgeObservability checks the hedged-query telemetry: the hedge and
// hedge-win counters and the span's hedge annotation naming the backup.
func TestHedgeObservability(t *testing.T) {
	tn := newTestNet(t)
	ct2 := netip.MustParseAddr("192.0.2.2")
	tn.netZone.MustAdd(
		dnswire.NewNS("cachetest.net", 172800, "ns2.cachetest.net"),
		dnswire.NewA("ns2.cachetest.net", 172800, ct2.String()),
	)
	ns2 := authoritative.NewServer(dnswire.NewName("ns2.cachetest.net"), tn.clock)
	ns2.AddZone(tn.ct)
	tn.net.Attach(ct2, ns2)
	tn.net.LatencyFor = func(src, dst netip.Addr) simnet.LatencyModel {
		if dst == tn.ctAddr {
			return simnet.Constant(100 * time.Millisecond)
		}
		return simnet.Constant(10 * time.Millisecond)
	}

	reg := obs.NewRegistry(tn.clock)
	tr := obs.NewTracer(tn.clock)
	pol := DefaultPolicy()
	pol.Retry = RetryPolicy{Hedge: 20 * time.Millisecond, OrderBySRTT: true}
	r := tn.resolver(pol, 5)
	r.Obs = NewMetrics(reg)
	r.Tracer = tr
	// Pin the order so the slow server leads and the hedge fires.
	r.srtt.observe(tn.ctAddr, 5*time.Millisecond)
	r.srtt.observe(ct2, 50*time.Millisecond)

	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if res.Hedges == 0 {
		t.Fatal("no hedge fired against the slow primary")
	}
	s := reg.Snapshot()
	if got := s.Counters[MetricHedges]; got != uint64(res.Hedges) {
		t.Errorf("%s = %d, want %d", MetricHedges, got, res.Hedges)
	}
	if got := s.Counters[MetricHedgeWins]; got == 0 {
		t.Errorf("%s = 0; the 10 ms backup must beat the 100 ms primary", MetricHedgeWins)
	}
	out := res.Span.String()
	for _, want := range []string{"hedges=", "hedge=" + ct2.String()} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

// TestVirtualClockTraceDeterminism re-runs the same cold resolution on two
// fresh virtual-time worlds and expects byte-identical rendered traces.
func TestVirtualClockTraceDeterminism(t *testing.T) {
	render := func() string {
		tn := newTestNet(t)
		tr := obs.NewTracer(tn.clock)
		r := tn.resolver(DefaultPolicy(), 7)
		r.Tracer = tr
		res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
		return res.Span.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("virtual-time traces differ:\n%s\nvs\n%s", a, b)
	}
}
