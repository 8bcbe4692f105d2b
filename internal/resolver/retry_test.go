package resolver

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/authoritative"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

// TestBackoffMonotoneCapped: for a spread of policies, the backoff sequence
// never decreases and never exceeds the cap.
func TestBackoffMonotoneCapped(t *testing.T) {
	policies := []RetryPolicy{
		{Backoff: 100 * time.Millisecond},
		{Backoff: 100 * time.Millisecond, Factor: 1.5, MaxBackoff: time.Second},
		{Backoff: time.Second, Factor: 4, MaxBackoff: 10 * time.Second},
		{Backoff: 30 * time.Second, Factor: 3, MaxBackoff: 300 * time.Second},
		{Backoff: time.Millisecond, Factor: 10},
	}
	for pi, rp := range policies {
		if got := rp.backoffFor(0); got != 0 {
			t.Errorf("policy %d: backoffFor(0) = %v, want 0", pi, got)
		}
		prev := time.Duration(0)
		for n := 1; n <= 30; n++ {
			b := rp.backoffFor(n)
			if b < prev {
				t.Errorf("policy %d: backoff shrank at n=%d: %v < %v", pi, n, b, prev)
			}
			if b > rp.maxBackoff() {
				t.Errorf("policy %d: backoff %v exceeds cap %v at n=%d", pi, b, rp.maxBackoff(), n)
			}
			prev = b
		}
		if rp.backoffFor(30) != rp.maxBackoff() {
			t.Errorf("policy %d: backoff never reached the cap: %v", pi, rp.backoffFor(30))
		}
	}
	if (RetryPolicy{}).backoffFor(5) != 0 {
		t.Error("zero policy produced a backoff")
	}
}

// TestJitterBounds: jitter draws stay in [0, Jitter·b) for every seed, and
// out-of-range Jitter values clamp.
func TestJitterBounds(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, b := range []time.Duration{time.Millisecond, 100 * time.Millisecond, 5 * time.Second} {
			for _, j := range []float64{0.1, 0.5, 1.0} {
				rp := RetryPolicy{Jitter: j}
				d := rp.jitterFor(b, rng)
				if d < 0 || float64(d) >= j*float64(b) {
					t.Fatalf("seed %d: jitter %v outside [0, %v·%v)", seed, d, j, b)
				}
			}
			// Clamping: Jitter > 1 behaves as 1; <= 0 draws nothing.
			if d := (RetryPolicy{Jitter: 7}).jitterFor(b, rng); float64(d) >= float64(b) {
				t.Fatalf("clamped jitter %v >= %v", d, b)
			}
			if d := (RetryPolicy{Jitter: -1}).jitterFor(b, rng); d != 0 {
				t.Fatalf("negative Jitter drew %v", d)
			}
		}
	}
}

// TestRetryPolicyEnabledGates: the zero value is inert; each knob arms the
// plane.
func TestRetryPolicyEnabledGates(t *testing.T) {
	if (RetryPolicy{}).enabled() {
		t.Error("zero RetryPolicy reports enabled")
	}
	for _, rp := range []RetryPolicy{
		{Attempts: 2}, {Backoff: time.Second}, {Hedge: time.Millisecond}, {OrderBySRTT: true},
	} {
		if !rp.enabled() {
			t.Errorf("%+v should report enabled", rp)
		}
	}
}

// estimate returns the current smoothed RTT for server.
func (t *srttTable) estimate(server netip.Addr) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.m[server]
	return d, ok
}

// TestSRTTConvergence: under fixed latency the estimate converges to the
// true RTT, monotonically from above.
func TestSRTTConvergence(t *testing.T) {
	tab := newSRTTTable()
	s := netip.MustParseAddr("192.0.2.1")
	tab.observe(s, 200*time.Millisecond)
	const truth = 40 * time.Millisecond
	prev, _ := tab.estimate(s)
	for i := 0; i < 40; i++ {
		got := tab.observe(s, truth)
		if got > prev {
			t.Fatalf("estimate rose while observing a lower fixed RTT: %v > %v", got, prev)
		}
		prev = got
	}
	if est, _ := tab.estimate(s); est < truth || est > truth+time.Millisecond {
		t.Errorf("estimate %v did not converge to %v", est, truth)
	}
}

// TestSRTTReorderAfterFlap: a server that times out sinks behind its peers
// in sortBySRTT, and fresh successes pull it forward again. Unknown servers
// always explore first.
func TestSRTTReorderAfterFlap(t *testing.T) {
	tab := newSRTTTable()
	a := netip.MustParseAddr("192.0.2.1")
	b := netip.MustParseAddr("192.0.2.2")
	u := netip.MustParseAddr("192.0.2.3") // never observed
	tab.observe(a, 10*time.Millisecond)
	tab.observe(b, 50*time.Millisecond)

	order := []netip.Addr{b, a, u}
	tab.sortBySRTT(order)
	if order[0] != u || order[1] != a || order[2] != b {
		t.Fatalf("initial order %v, want [unknown, fast, slow]", order)
	}

	// a flaps: timeouts penalize it past b.
	tab.penalize(a, 5*time.Second)
	order = []netip.Addr{a, b}
	tab.sortBySRTT(order)
	if order[0] != b {
		t.Fatalf("after penalty order %v, want b first", order)
	}

	// Fresh successes on a pull it back in front.
	for i := 0; i < 40; i++ {
		tab.observe(a, 10*time.Millisecond)
	}
	order = []netip.Addr{b, a}
	tab.sortBySRTT(order)
	if order[0] != a {
		t.Fatalf("after recovery order %v, want a first", order)
	}

	// The penalty is capped: one bad window can't exile a server forever.
	tab.penalize(b, 100*time.Millisecond)
	tab.penalize(b, 100*time.Millisecond)
	tab.penalize(b, 100*time.Millisecond)
	tab.penalize(b, 100*time.Millisecond)
	if est, _ := tab.estimate(b); est > 800*time.Millisecond {
		t.Errorf("penalty uncapped: %v", est)
	}
}

// TestRetryRidesOutFlap: with a single-server zone flapping down half of
// each 10 s period, the legacy resolver SERVFAILs while growing backoff —
// whose delay advances the fault schedule through the per-exchange offset —
// reaches an up-phase and answers.
func TestRetryRidesOutFlap(t *testing.T) {
	mk := func(pol Policy) (*testNet, *Resolver) {
		tn := newTestNet(t)
		tn.net.Clock = tn.clock
		tn.net.Faults = simnet.NewFaultSchedule(
			simnet.Flap(tn.ctAddr, 0, 0, 10*time.Second, 0.5))
		return tn, tn.resolver(pol, 3)
	}

	// Legacy: one candidate server, one attempt, down at t=0 → SERVFAIL.
	_, legacy := mk(DefaultPolicy())
	res, err := legacy.Resolve(dnswire.NewName("www.cachetest.net"), dnswire.TypeA)
	if err == nil && res.Msg.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("legacy resolver should fail inside the flap's down phase, got %s", res.Msg.Header.RCode)
	}

	// Retry plane: attempts at offsets 0 s (down), ~11 s (down), ~28 s (up).
	pol := DefaultPolicy()
	pol.Retry = RetryPolicy{Attempts: 3, Backoff: 6 * time.Second}
	_, retry := mk(pol)
	res = mustResolve(t, retry, "www.cachetest.net", dnswire.TypeA)
	if len(res.Msg.Answer) == 0 {
		t.Fatalf("retrying resolver got no answer: rcode %s", res.Msg.Header.RCode)
	}
	if res.Retries != 2 || res.Timeouts != 2 {
		t.Errorf("retries=%d timeouts=%d, want 2/2 (two down-phase attempts)", res.Retries, res.Timeouts)
	}
	if res.Stale {
		t.Error("answer should be fresh, not stale")
	}
}

// TestHedgeWinsOverSlowPrimary: with SRTT ordering pinned so the slow
// server leads, a hedged query to the second candidate answers first and
// the client pays the hedge completion, not the slow primary's RTT.
func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	tn := newTestNet(t)
	ct2 := netip.MustParseAddr("192.0.2.2")
	// Second nameserver for cachetest.net: the same zone served from a new
	// address.
	tn.netZone.MustAdd(
		dnswire.NewNS("cachetest.net", 172800, "ns2.cachetest.net"),
		dnswire.NewA("ns2.cachetest.net", 172800, ct2.String()),
	)
	tn.ct.MustAdd(
		dnswire.NewNS("cachetest.net", 3600, "ns2.cachetest.net"),
		dnswire.NewA("ns2.cachetest.net", 3600, ct2.String()),
	)
	ns2 := authoritative.NewServer(dnswire.NewName("ns2.cachetest.net"), tn.clock)
	ns2.AddZone(tn.ct)
	tn.net.Attach(ct2, ns2)
	tn.net.LatencyFor = func(src, dst netip.Addr) simnet.LatencyModel {
		if dst == tn.ctAddr {
			return simnet.Constant(100 * time.Millisecond) // slow primary
		}
		return simnet.Constant(10 * time.Millisecond)
	}

	pol := DefaultPolicy()
	pol.Retry = RetryPolicy{Hedge: 20 * time.Millisecond, OrderBySRTT: true}
	r := tn.resolver(pol, 5)
	// Pin the SRTT order: the slow server looks best, so it leads and the
	// hedge has something to rescue.
	r.srtt.observe(tn.ctAddr, 5*time.Millisecond)
	r.srtt.observe(ct2, 50*time.Millisecond)

	// Warm the referral chain, then expire the answer so the next
	// resolution is exactly one cachetest step.
	mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	tn.clock.Advance(400 * time.Second)

	res := mustResolve(t, r, "www.cachetest.net", dnswire.TypeA)
	if res.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", res.Hedges)
	}
	if res.Queries != 2 {
		t.Errorf("queries = %d, want 2 (primary + hedge)", res.Queries)
	}
	if res.FinalServer != ct2 {
		t.Errorf("final server %v, want the hedged backup %v", res.FinalServer, ct2)
	}
	// Client pays hedge-trigger + backup RTT (30 ms), not the 100 ms
	// primary.
	if want := 30 * time.Millisecond; res.Latency != want {
		t.Errorf("latency %v, want %v (hedge completion)", res.Latency, want)
	}
}

// TestSubResolutionChargesRetriesAndHedges: the retries and hedges spent
// resolving an out-of-bailiwick nameserver's address land in the client's
// Trace, matching what the resolver's metrics count.
func TestSubResolutionChargesRetriesAndHedges(t *testing.T) {
	tn := newTestNet(t)
	// oob.net is served by ns9.cachetest.net, for which net. has no glue:
	// every cachetest.net exchange happens inside the sub-resolution.
	ct2, oobAddr := netip.MustParseAddr("192.0.2.2"), netip.MustParseAddr("192.0.2.99")
	tn.netZone.MustAdd(
		dnswire.NewNS("cachetest.net", 172800, "ns2.cachetest.net"),
		dnswire.NewA("ns2.cachetest.net", 172800, ct2.String()),
		dnswire.NewNS("oob.net", 172800, "ns9.cachetest.net"),
	)
	tn.ct.MustAdd(dnswire.NewA("ns9.cachetest.net", 3600, oobAddr.String()))
	ns2 := authoritative.NewServer(dnswire.NewName("ns2.cachetest.net"), tn.clock)
	ns2.AddZone(tn.ct)
	tn.net.Attach(ct2, ns2)
	oob := zone.New(dnswire.NewName("oob.net"))
	oob.MustAdd(
		dnswire.NewSOA("oob.net", 3600, "ns9.cachetest.net", "admin.oob.net", 1, 7200, 3600, 1209600, 60),
		dnswire.NewNS("oob.net", 3600, "ns9.cachetest.net"),
		dnswire.NewA("www.oob.net", 300, "192.0.2.100"),
	)
	oobSrv := authoritative.NewServer(dnswire.NewName("ns9.cachetest.net"), tn.clock)
	oobSrv.AddZone(oob)
	tn.net.Attach(oobAddr, oobSrv)
	// Both cachetest servers are slower than the hedge delay and lossy.
	tn.net.LatencyFor = func(src, dst netip.Addr) simnet.LatencyModel {
		if dst == tn.ctAddr || dst == ct2 {
			return simnet.Constant(100 * time.Millisecond)
		}
		return simnet.Constant(10 * time.Millisecond)
	}
	tn.net.Clock = tn.clock
	tn.net.Faults = simnet.NewFaultSchedule(
		simnet.LossBurst(tn.ctAddr, 0, 0, 0.8), simnet.LossBurst(ct2, 0, 0, 0.8))

	pol := DefaultPolicy()
	pol.Retry = RetryPolicy{Attempts: 8, Hedge: 20 * time.Millisecond}
	r := tn.resolver(pol, 4)
	reg := obs.NewRegistry(tn.clock)
	r.Obs = NewMetrics(reg)
	res := mustResolve(t, r, "www.oob.net", dnswire.TypeA)
	if got := answerAddr(t, res); got != "192.0.2.100" {
		t.Fatalf("answer = %s", got)
	}
	s := reg.Snapshot()
	retries, hedges := s.Counters[MetricRetries], s.Counters[MetricHedges]
	if retries == 0 || hedges == 0 {
		t.Fatalf("setup: the sub-resolution spent %d retries and %d hedges, want both > 0", retries, hedges)
	}
	if uint64(res.Retries) != retries || uint64(res.Hedges) != hedges {
		t.Errorf("trace retries=%d hedges=%d, metrics %d/%d: a sub-resolution's work vanished from the trace",
			res.Retries, res.Hedges, retries, hedges)
	}
}

// TestRetryDeterministic: the retry plane (jitter included) replays
// byte-identically for the same seed, and jitter differs across seeds.
func TestRetryDeterministic(t *testing.T) {
	run := func(seed int64) (int, int, time.Duration) {
		tn := newTestNet(t)
		tn.net.Clock = tn.clock
		tn.net.Faults = simnet.NewFaultSchedule(
			simnet.LossBurst(tn.ctAddr, 0, 0, 0.6))
		pol := DefaultPolicy()
		pol.Retry = RetryPolicy{Attempts: 5, Backoff: 300 * time.Millisecond, Jitter: 0.5}
		r := tn.resolver(pol, seed)
		res, _ := r.Resolve(dnswire.NewName("www.cachetest.net"), dnswire.TypeA)
		return res.Queries, res.Retries, res.Latency
	}
	q1, r1, l1 := run(9)
	q2, r2, l2 := run(9)
	if q1 != q2 || r1 != r2 || l1 != l2 {
		t.Errorf("same seed diverged: (%d,%d,%v) vs (%d,%d,%v)", q1, r1, l1, q2, r2, l2)
	}
}
