package middleware

import (
	"bytes"
	"context"
	"net/netip"
	"os"
	"regexp"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
)

// FuzzPipelineSpec holds the contract a daemon leans on when it reloads a
// -pipeline file at SIGHUP: Check never panics on any text; a spec Check
// accepts, Build accepts against a real environment; and the pipeline it
// built answers queries without panicking, with the same message, verdict
// and trace whether a query lends no storage or a Result full of garbage
// (Query.Into). The corpus starts from every worked configuration in
// docs/middleware.md and every spec TestSpecParseErrors rejects.
func FuzzPipelineSpec(f *testing.F) {
	doc, err := os.ReadFile("../../docs/middleware.md")
	if err != nil {
		f.Fatal(err)
	}
	_, worked, _ := bytes.Cut(doc, []byte("## Worked configurations"))
	worked, _, _ = bytes.Cut(worked, []byte("\n## "))
	configs := regexp.MustCompile("(?s)```toml\n(.*?)```").FindAllSubmatch(worked, -1)
	if len(configs) < 3 {
		f.Fatalf("found %d worked configurations in docs/middleware.md, want at least 3", len(configs))
	}
	for _, m := range configs {
		f.Add(string(m[1]))
	}
	for _, tc := range rejectedSpecs {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if Check(spec) != nil {
			return
		}
		// Each side gets a pipeline of its own, so stage state (a rate
		// limiter's buckets) evolves the same on both.
		build := func() *Pipeline {
			env := Env{LookupContext: (&fakeLookup{}).lookupInto, Clock: simnet.NewVirtualClock(), Registry: obs.NewRegistry(nil)}
			p, err := Build(spec, env)
			if err != nil {
				t.Fatalf("Check accepted the spec, Build rejected it: %v", err)
			}
			return p
		}
		ask := func(p *Pipeline, name string, into *resolver.Result) (Response, []byte) {
			q := query(name, "192.0.2.7")
			q.Into = into
			resp, err := p.Resolve(context.Background(), q)
			if err != nil {
				t.Fatalf("stages %v: %v", p.Stages(), err)
			}
			wire, err := dnswire.Encode(resp.Msg)
			if err != nil {
				t.Fatalf("stages %v: encode %v: %v", p.Stages(), resp.Msg, err)
			}
			return resp, wire
		}
		plainP, lentP, scratch := build(), build(), new(resolver.Result)
		for range fuzzRepeats {
			for _, name := range fuzzNames {
				plain, plainWire := ask(plainP, name, nil)
				lent, lentWire := ask(lentP, name, fillGarbage(scratch))
				if plain.Verdict != lent.Verdict || plain.Drop != lent.Drop || !bytes.Equal(plainWire, lentWire) ||
					plain.CacheHit != lent.CacheHit || plain.Stale != lent.Stale || plain.Coalesced != lent.Coalesced ||
					plain.Queries != lent.Queries || plain.AnswerTTL != lent.AnswerTTL {
					t.Fatalf("%s with no storage: %v drop=%v %+v\n%v\nwith lent storage: %v drop=%v %+v\n%v", name,
						plain.Verdict, plain.Drop, plain.Trace, plain.Msg, lent.Verdict, lent.Drop, lent.Trace, lent.Msg)
				}
			}
		}
	})
}

// fuzzNames are the queries FuzzPipelineSpec asks, fuzzRepeats times each
// so a limiter's burst is spent: a name no worked configuration touches,
// then one each of them blocks, answers statically or meters.
var fuzzNames = []string{"www.example.org", "ads.example.test", "intranet.corp.example", "x.flooded.example"}

const fuzzRepeats = 12

// fillGarbage fills res with another answer entirely — every section, flag
// and trace field a stage could forget to reset — and returns it.
func fillGarbage(res *resolver.Result) *resolver.Result {
	junk := dnswire.MustName("garbage.invalid")
	resolver.NewResult(res, junk, dnswire.TypeMX)
	res.Msg.Header = dnswire.Header{ID: 0xBEEF, QR: true, AA: true, TC: true, AD: true, RCode: dnswire.RCodeServFail}
	rr := dnswire.RR{Name: junk, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.A{Addr: netip.MustParseAddr("203.0.113.9")}}
	for range 3 {
		res.Msg.AddAnswer(rr)
	}
	res.Msg.AddAuthority(rr)
	res.Msg.AddAdditional(rr)
	res.Trace = resolver.Trace{CacheHit: true, Stale: true, Coalesced: true, Queries: 9, AnswerTTL: 1}
	return res
}
