package middleware

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
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
}

func (f *fakeLookup) lookup(name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error) {
	return f.lookupInto(context.Background(), nil, name, qtype)
}

// lookupInto is lookup in the lent form (LookupFunc): it answers into dst.
func (f *fakeLookup) lookupInto(_ context.Context, dst *resolver.Result, name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error) {
	f.calls.Add(1)
	ttl := f.ttl
	if ttl == 0 {
		ttl = 300
	}
	res := resolver.NewResult(dst, name, qtype)
	res.Msg.AddAnswer(dnswire.RR{
		Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")},
	})
	res.Queries, res.AnswerTTL = 1, ttl
	return res, nil
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
	// Caching and coalescing happen once, beneath the pipeline: a spec that
	// still names one of the retired kinds is a typo like any other.
	{"retired cache", "entry=\"a\"\n[stage.a]\ntype=\"cache\"\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "unknown type \"cache\""},
	{"retired dedup", "entry=\"a\"\n[stage.a]\ntype=\"dedup\"\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "unknown type \"dedup\""},
	{"retired collapse", "entry=\"a\"\n[stage.a]\ntype=\"collapse\"\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "unknown type \"collapse\""},
	{"missing type", "[stage.a]\nnext = \"b\"", "has no type"},
	{"unknown key", "[stage.a]\ntype = \"resolver\"\nwhat = 1", "unknown key"},
	{"dangling next", "[stage.a]\ntype = \"ttlmod\"\nnext = \"ghost\"", "undefined stage"},
	{"dangling entry", "entry = \"ghost\"\n[stage.a]\ntype = \"resolver\"", "undefined stage"},
	{"cycle", "entry=\"a\"\n[stage.a]\ntype=\"ttlmod\"\nnext=\"b\"\n[stage.b]\ntype=\"ttlmod\"\nnext=\"a\"", "cycle"},
	{"bad number", "entry=\"a\"\n[stage.a]\ntype=\"ratelimit\"\nqps=\"fast\"\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "not a number"},
	{"nan burst", "entry=\"a\"\n[stage.a]\ntype=\"ratelimit\"\nburst=\"NaN\"\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "burst NaN is not a finite number"},
	{"missing next", "[stage.a]\ntype = \"ttlmod\"", "needs next"},
	{"bad action", "entry=\"a\"\n[stage.a]\ntype=\"blocklist\"\nblock=\"x.example\"\naction=\"explode\"\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "action must be"},
	// ttlmod only lowers a TTL: a floor would show a TTL the cache does not
	// store, so its retired key is a typo like any other.
	{"retired ttlmod min", "entry=\"a\"\n[stage.a]\ntype=\"ttlmod\"\nmin=30\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "unknown key(s) min"},
	{"ttlmod max past 31 bits", "entry=\"a\"\n[stage.a]\ntype=\"ttlmod\"\nmax=4294967296\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "max = 4294967296 is outside [0, 2147483647]"},
	{"negative static ttl", "entry=\"a\"\n[stage.a]\ntype=\"static\"\nnames=\"x.example\"\nanswer=\"10.0.0.1\"\nttl=-1\nnext=\"r\"\n[stage.r]\ntype=\"resolver\"", "ttl = -1 is outside [0, 2147483647]"},
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
	if resp.Verdict != VerdictBlocked {
		t.Fatalf("verdict = %v", resp.Verdict)
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
	// The stage owns its names: AAAA for one is NODATA, answered here — the
	// resolver would say NXDOMAIN for a name that has an A answer.
	qa := query("intranet.corp", "")
	qa.Type = dnswire.TypeAAAA
	resp, err = p.Resolve(context.Background(), qa)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != VerdictBlocked || resp.Msg.Header.RCode != dnswire.RCodeNoError || len(resp.Msg.Answer) != 0 {
		t.Fatalf("AAAA of a static name: verdict %v, %v; want a local NOERROR with no answer", resp.Verdict, resp.Msg)
	}
	// Any other name passes through.
	if _, err := p.Resolve(context.Background(), query("www.corp", "")); err != nil {
		t.Fatal(err)
	}
	if fl.calls.Load() != 1 {
		t.Fatalf("resolver calls = %d, want 1 (www.corp only)", fl.calls.Load())
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

func TestTTLModStage(t *testing.T) {
	fl := &fakeLookup{ttl: 86400}
	p := mustBuild(`
entry = "clamp"
[stage.clamp]
type = "ttlmod"
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
	want := []string{"blocklist", "ratelimit", "resolver", "router", "static", "ttlmod"}
	got := StageKinds()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("StageKinds() = %v, want %v", got, want)
	}
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictResolved: "resolved", VerdictBlocked: "blocked", VerdictLimited: "limited",
	} {
		if v.String() != want {
			t.Fatalf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}
