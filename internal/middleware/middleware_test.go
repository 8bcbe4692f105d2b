package middleware

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
)

// fakeLookup is a counting terminal datapath returning a canned answer.
type fakeLookup struct {
	calls atomic.Int64
	ttl   uint32
	// cnameTTL, when set, answers with the CDN shape: a CNAME of that TTL
	// onto edge.example, whose A record carries ttl.
	cnameTTL uint32
	delay    func() // optional hook run inside the lookup, for coalescing tests
}

func (f *fakeLookup) lookup(name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error) {
	f.calls.Add(1)
	if f.delay != nil {
		f.delay()
	}
	ttl := f.ttl
	if ttl == 0 {
		ttl = 300
	}
	msg := &dnswire.Message{
		Header:   dnswire.Header{QR: true, RA: true},
		Question: []dnswire.Question{{Name: name, Type: qtype, Class: dnswire.ClassIN}},
	}
	owner := name
	if f.cnameTTL > 0 {
		msg.AddAnswer(dnswire.NewCNAME(string(name), f.cnameTTL, "edge.example"))
		owner = dnswire.MustName("edge.example")
	}
	msg.AddAnswer(dnswire.RR{
		Name: owner, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")},
	})
	msg.AddAuthority(dnswire.NewNS("example.org", 3600, "ns1.example.org"))
	return &resolver.Result{Msg: msg, Trace: resolver.Trace{Queries: 1, AnswerTTL: msg.Answer[0].TTL}}, nil
}

// mustBuild is Build for the canned specs below.
func mustBuild(spec string, env Env) *Pipeline {
	p, err := Build(spec, env)
	if err != nil {
		panic(err)
	}
	return p
}

func query(name string, client string) *Query {
	q := &Query{Name: dnswire.MustName(name), Type: dnswire.TypeA}
	if client != "" {
		q.Client = netip.MustParseAddr(client)
	}
	return q
}

func TestDefaultPipelineIsSingleTerminalStage(t *testing.T) {
	fl := &fakeLookup{}
	p := Default(Env{Lookup: fl.lookup})
	if got := p.Stages(); len(got) != 1 || got[0] != "resolver" {
		t.Fatalf("Stages() = %v, want [resolver]", got)
	}
	resp, err := p.Resolve(context.Background(), query("www.example.org", ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != VerdictResolved || resp.Drop {
		t.Fatalf("verdict = %v drop = %v", resp.Verdict, resp.Drop)
	}
	if fl.calls.Load() != 1 {
		t.Fatalf("lookup calls = %d, want 1", fl.calls.Load())
	}
}

func TestBuildEmptySpecIsDefault(t *testing.T) {
	fl := &fakeLookup{}
	p, err := Build("  # only a comment\n\n", Env{Lookup: fl.lookup})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stages(); len(got) != 1 || got[0] != "resolver" {
		t.Fatalf("Stages() = %v, want [resolver]", got)
	}
}

// rejectedSpecs is every spec Build must refuse, with a fragment of the
// reason it gives. FuzzPipelineSpec seeds its corpus from it too.
var rejectedSpecs = []struct{ name, spec, wantErr string }{
	{"garbage line", "what even is this", "want key = value"},
	{"bad header", "[stage.x\ntype = \"resolver\"", "unterminated"},
	{"not a stage table", "[other.x]", "want [stage.NAME]"},
	{"dup stage", "[stage.a]\ntype=\"resolver\"\n[stage.a]\ntype=\"resolver\"", "duplicate stage"},
	{"dup key", "[stage.a]\ntype=\"resolver\"\ntype=\"resolver\"", "duplicate key"},
	{"key before tables", "foo = 1\n[stage.a]\ntype=\"resolver\"", "outside a [stage.*] table"},
	{"many stages no entry", "[stage.a]\ntype=\"resolver\"\n[stage.b]\ntype=\"resolver\"", "no entry"},
	{"unknown type", "[stage.a]\ntype = \"warp\"", "unknown type"},
	{"missing type", "[stage.a]\nnext = \"b\"", "has no type"},
	{"unknown key", "[stage.a]\ntype = \"resolver\"\nwhat = 1", "unknown key"},
	{"dangling next", "[stage.a]\ntype = \"dedup\"\nnext = \"ghost\"", "undefined stage"},
	{"dangling entry", "entry = \"ghost\"\n[stage.a]\ntype = \"resolver\"", "undefined stage"},
	{"cycle", "entry=\"a\"\n[stage.a]\ntype=\"dedup\"\nnext=\"b\"\n[stage.b]\ntype=\"dedup\"\nnext=\"a\"", "cycle"},
	{"bad number", "entry=\"a\"\n[stage.a]\ntype=\"ratelimit\"\nqps=\"fast\"\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "not a number"},
	{"nan burst", "entry=\"a\"\n[stage.a]\ntype=\"ratelimit\"\nburst=\"NaN\"\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "need qps > 0"},
	{"missing next", "[stage.a]\ntype = \"dedup\"", "needs next"},
	{"bad action", "entry=\"a\"\n[stage.a]\ntype=\"blocklist\"\nblock=\"x.example\"\naction=\"explode\"\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "action must be"},
}

func TestSpecParseErrors(t *testing.T) {
	for _, tc := range rejectedSpecs {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Build(tc.spec, Env{Lookup: (&fakeLookup{}).lookup})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Build err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestCheckNeedsNoEnv(t *testing.T) {
	if err := Check("[stage.only]\ntype = \"resolver\"\n"); err != nil {
		t.Fatal(err)
	}
	if err := Check("[stage.only]\ntype = \"bogus\"\n"); err == nil {
		t.Fatal("want error for unknown type")
	}
}

func TestBlocklistStage(t *testing.T) {
	fl := &fakeLookup{}
	reg := obs.NewRegistry(nil)
	p := mustBuild(`
entry = "bl"
[stage.bl]
type   = "blocklist"
block  = "bad.example tracker.net"
action = "nxdomain"
next   = "r"
[stage.r]
type = "resolver"
`, Env{Lookup: fl.lookup, Registry: reg})

	resp, err := p.Resolve(context.Background(), query("x.y.bad.example", "10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != VerdictBlocked || resp.Stage != "bl" {
		t.Fatalf("verdict = %v stage = %q", resp.Verdict, resp.Stage)
	}
	if resp.Msg.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v, want NXDomain", resp.Msg.Header.RCode)
	}
	if fl.calls.Load() != 0 {
		t.Fatal("blocked query reached the resolver")
	}

	if _, err := p.Resolve(context.Background(), query("good.example", "10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if fl.calls.Load() != 1 {
		t.Fatalf("pass-through calls = %d, want 1", fl.calls.Load())
	}
	if got := reg.Counter("mw.bl.blocked").Value(); got != 1 {
		t.Fatalf("mw.bl.blocked = %d, want 1", got)
	}
}

func TestStaticStage(t *testing.T) {
	fl := &fakeLookup{}
	p := mustBuild(`
entry = "pin"
[stage.pin]
type   = "static"
names  = "intranet.corp"
answer = "10.1.2.3"
ttl    = 60
next   = "r"
[stage.r]
type = "resolver"
`, Env{Lookup: fl.lookup})

	resp, err := p.Resolve(context.Background(), query("intranet.corp", ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Msg.Answer) != 1 || resp.Msg.Answer[0].TTL != 60 {
		t.Fatalf("answer = %v", resp.Msg.Answer)
	}
	if a := resp.Msg.Answer[0].Data.(dnswire.A); a.Addr != netip.MustParseAddr("10.1.2.3") {
		t.Fatalf("addr = %v", a.Addr)
	}
	if resp.Msg.Answer[0].Name != dnswire.MustName("intranet.corp") {
		t.Fatalf("owner = %v", resp.Msg.Answer[0].Name)
	}
	// AAAA for the same name passes through.
	qa := query("intranet.corp", "")
	qa.Type = dnswire.TypeAAAA
	if _, err := p.Resolve(context.Background(), qa); err != nil {
		t.Fatal(err)
	}
	if fl.calls.Load() != 1 {
		t.Fatalf("resolver calls = %d, want 1", fl.calls.Load())
	}
}

func TestRateLimitStage(t *testing.T) {
	fl := &fakeLookup{}
	clk := simnet.NewVirtualClock()
	reg := obs.NewRegistry(clk)
	p := mustBuild(`
entry = "shield"
[stage.shield]
type  = "ratelimit"
qps   = 1
burst = 2
next  = "r"
[stage.r]
type = "resolver"
`, Env{Lookup: fl.lookup, Clock: clk, Registry: reg})

	ctx := context.Background()
	// Burst of 2 admitted, third limited.
	for i := 0; i < 2; i++ {
		resp, err := p.Resolve(ctx, query("a.example", "10.0.0.9"))
		if err != nil || resp.Verdict != VerdictResolved {
			t.Fatalf("query %d: verdict = %v err = %v", i, resp.Verdict, err)
		}
	}
	resp, err := p.Resolve(ctx, query("a.example", "10.0.0.9"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != VerdictLimited || resp.Msg.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("verdict = %v rcode = %v", resp.Verdict, resp.Msg.Header.RCode)
	}
	// A different client has its own bucket.
	if resp, _ := p.Resolve(ctx, query("a.example", "10.0.0.10")); resp.Verdict != VerdictResolved {
		t.Fatalf("other client limited: %v", resp.Verdict)
	}
	// Refill after a second.
	clk.Advance(time.Second)
	if resp, _ := p.Resolve(ctx, query("a.example", "10.0.0.9")); resp.Verdict != VerdictResolved {
		t.Fatalf("post-refill verdict = %v", resp.Verdict)
	}
	// Clientless (in-process) queries bypass the limiter entirely.
	for i := 0; i < 10; i++ {
		if resp, _ := p.Resolve(ctx, query("a.example", "")); resp.Verdict != VerdictResolved {
			t.Fatalf("clientless query limited")
		}
	}
	if got := reg.Counter("mw.shield.limited").Value(); got != 1 {
		t.Fatalf("mw.shield.limited = %d, want 1", got)
	}
}

func TestRateLimitPrefixAggregation(t *testing.T) {
	fl := &fakeLookup{}
	clk := simnet.NewVirtualClock()
	p := mustBuild(`
entry = "shield"
[stage.shield]
type    = "ratelimit"
qps     = 1
burst   = 1
prefix4 = 24
action  = "drop"
next    = "r"
[stage.r]
type = "resolver"
`, Env{Lookup: fl.lookup, Clock: clk})

	ctx := context.Background()
	if resp, _ := p.Resolve(ctx, query("a.example", "203.0.113.7")); resp.Verdict != VerdictResolved {
		t.Fatalf("first query limited")
	}
	// Same /24, different host: shares the bucket, and drop mode asks the
	// caller to send nothing.
	resp, err := p.Resolve(ctx, query("a.example", "203.0.113.99"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != VerdictLimited || !resp.Drop {
		t.Fatalf("verdict = %v drop = %v, want limited drop", resp.Verdict, resp.Drop)
	}
}

func TestDedupStageCoalesces(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	fl := &fakeLookup{delay: func() {
		once.Do(func() { close(entered) })
		<-release
	}}
	p := mustBuild(`
entry = "sf"
[stage.sf]
type = "dedup"
next = "r"
[stage.r]
type = "resolver"
`, Env{Lookup: fl.lookup})

	ctx := context.Background()
	const followers = 4
	var wg sync.WaitGroup
	results := make([]Response, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _ = p.Resolve(ctx, query("cold.example", "10.0.0.1"))
	}()
	<-entered
	sf := p.stages[0].(*dedupStage)
	k := dedupKey{name: dnswire.MustName("cold.example"), qtype: dnswire.TypeA}
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = p.Resolve(ctx, query("cold.example", "10.0.0.2"))
		}(i)
	}
	for sf.flight.InFlight(k) < followers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if fl.calls.Load() != 1 {
		t.Fatalf("lookup calls = %d, want 1 (coalesced)", fl.calls.Load())
	}
	coalesced := 0
	for i, r := range results {
		if r.Result == nil {
			t.Fatalf("result %d is nil", i)
		}
		if r.Coalesced {
			coalesced++
			if r.Queries != 0 {
				t.Fatalf("follower %d charged %d queries", i, r.Queries)
			}
		}
	}
	if coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", coalesced, followers)
	}
}

func TestCacheStage(t *testing.T) {
	fl := &fakeLookup{ttl: 100}
	clk := simnet.NewVirtualClock()
	p := mustBuild(`
entry = "memo"
[stage.memo]
type = "cache"
next = "r"
[stage.r]
type = "resolver"
`, Env{Lookup: fl.lookup, Clock: clk})

	ctx := context.Background()
	if resp, _ := p.Resolve(ctx, query("hot.example", "10.0.0.1")); resp.Verdict != VerdictResolved {
		t.Fatal("first query should miss")
	}
	clk.Advance(40 * time.Second)
	resp, err := p.Resolve(ctx, query("hot.example", "10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != VerdictCached || !resp.CacheHit {
		t.Fatalf("verdict = %v cachehit = %v", resp.Verdict, resp.CacheHit)
	}
	if got := resp.Msg.Answer[0].TTL; got != 60 {
		t.Fatalf("decayed TTL = %d, want 60", got)
	}
	if fl.calls.Load() != 1 {
		t.Fatalf("lookup calls = %d, want 1", fl.calls.Load())
	}
	// Expiry: past the TTL the entry is refetched.
	clk.Advance(61 * time.Second)
	if resp, _ := p.Resolve(ctx, query("hot.example", "10.0.0.1")); resp.Verdict != VerdictResolved {
		t.Fatal("expired entry should miss")
	}
	if fl.calls.Load() != 2 {
		t.Fatalf("lookup calls = %d, want 2", fl.calls.Load())
	}
	clk.Advance(time.Second)
	if resp, _ := p.Resolve(ctx, query("hot.example", "10.0.0.1")); resp.Verdict != VerdictCached || fl.calls.Load() != 2 {
		t.Fatalf("after the refetch: verdict %v, %d lookups; want the refetched answer memoized (cached, 2)", resp.Verdict, fl.calls.Load())
	}

	// A CNAME chain lives for its shortest link (CNAME 300 -> A 20): a hit
	// before 20 s decays both TTLs, and past it the whole response is gone.
	fl.cnameTTL, fl.ttl = 300, 20
	p.Resolve(ctx, query("www.cdn.example", ""))
	clk.Advance(15 * time.Second)
	resp, _ = p.Resolve(ctx, query("www.cdn.example", ""))
	if resp.Verdict != VerdictCached || len(resp.Msg.Answer) != 2 ||
		resp.Msg.Answer[0].TTL != 285 || resp.Msg.Answer[1].TTL != 5 {
		t.Fatalf("chain hit at 15 s: verdict %v, answers %v; want cached CNAME 285 + A 5", resp.Verdict, resp.Msg.Answer)
	}
	clk.Advance(5 * time.Second)
	if resp, _ := p.Resolve(ctx, query("www.cdn.example", "")); resp.Verdict != VerdictResolved {
		t.Fatalf("chain at 20 s: verdict %v, want a miss — the A record has expired", resp.Verdict)
	}
}

func TestCacheStageEviction(t *testing.T) {
	fl := &fakeLookup{ttl: 1000}
	clk := simnet.NewVirtualClock()
	p := mustBuild(`
entry = "memo"
[stage.memo]
type    = "cache"
entries = 2
next    = "r"
[stage.r]
type = "resolver"
`, Env{Lookup: fl.lookup, Clock: clk})

	ctx := context.Background()
	for _, n := range []string{"a.example", "b.example", "c.example"} {
		if _, err := p.Resolve(ctx, query(n, "")); err != nil {
			t.Fatal(err)
		}
	}
	// a was evicted FIFO; c is memoized.
	p.Resolve(ctx, query("c.example", ""))
	if fl.calls.Load() != 3 {
		t.Fatalf("calls after c re-query = %d, want 3", fl.calls.Load())
	}
	p.Resolve(ctx, query("a.example", ""))
	if fl.calls.Load() != 4 {
		t.Fatalf("calls after a re-query = %d, want 4 (a evicted)", fl.calls.Load())
	}
}

func TestTTLModStage(t *testing.T) {
	fl := &fakeLookup{ttl: 86400}
	p := mustBuild(`
entry = "clamp"
[stage.clamp]
type = "ttlmod"
min  = 30
max  = 3600
next = "r"
[stage.r]
type = "resolver"
`, Env{Lookup: fl.lookup})

	resp, err := p.Resolve(context.Background(), query("long.example", ""))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Msg.Answer[0].TTL; got != 3600 {
		t.Fatalf("clamped TTL = %d, want 3600", got)
	}
	if resp.AnswerTTL != 3600 {
		t.Fatalf("trace AnswerTTL = %d, want 3600", resp.AnswerTTL)
	}
}

func TestCollapseStage(t *testing.T) {
	fl := &fakeLookup{}
	p := mustBuild(`
entry = "min"
[stage.min]
type = "collapse"
next = "r"
[stage.r]
type = "resolver"
`, Env{Lookup: fl.lookup})

	resp, err := p.Resolve(context.Background(), query("www.example.org", ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Msg.Authority) != 0 || len(resp.Msg.Additional) != 0 {
		t.Fatalf("sections not stripped: %d/%d", len(resp.Msg.Authority), len(resp.Msg.Additional))
	}
	if len(resp.Msg.Answer) != 1 {
		t.Fatalf("answer count = %d", len(resp.Msg.Answer))
	}
}

func TestRouterStage(t *testing.T) {
	fl := &fakeLookup{}
	p := mustBuild(`
entry = "split"
[stage.split]
type    = "router"
routes  = "blocked.example -> bl; example -> r"
default = "r"
[stage.bl]
type   = "blocklist"
block  = "blocked.example"
action = "refused"
next   = "r"
[stage.r]
type = "resolver"
`, Env{Lookup: fl.lookup})

	resp, err := p.Resolve(context.Background(), query("x.blocked.example", "10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != VerdictBlocked || resp.Msg.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("routed query: verdict = %v rcode = %v", resp.Verdict, resp.Msg.Header.RCode)
	}
	if resp2, _ := p.Resolve(context.Background(), query("ok.example", "10.0.0.1")); resp2.Verdict != VerdictResolved {
		t.Fatalf("suffix route verdict = %v", resp2.Verdict)
	}
	if resp3, _ := p.Resolve(context.Background(), query("elsewhere.net", "10.0.0.1")); resp3.Verdict != VerdictResolved {
		t.Fatalf("default route verdict = %v", resp3.Verdict)
	}
}

func TestStageKindsRegistered(t *testing.T) {
	want := []string{"blocklist", "cache", "collapse", "dedup", "ratelimit", "resolver", "router", "static", "ttlmod"}
	got := StageKinds()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("StageKinds() = %v, want %v", got, want)
	}
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictResolved: "resolved", VerdictBlocked: "blocked",
		VerdictLimited: "limited", VerdictCached: "cached",
	} {
		if v.String() != want {
			t.Fatalf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}
