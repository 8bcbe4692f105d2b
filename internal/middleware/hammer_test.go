package middleware

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
)

// TestPipelineRaceHammer drives the one stateful stage — the per-client
// rate limiter — from many goroutines at once on the wall clock, four to a
// client so every bucket is contended. It exists for the -race build: the
// limiter's bucket table mutates under concurrent load here, so a missing
// lock shows up as a detector report rather than a production heisenbug.
func TestPipelineRaceHammer(t *testing.T) {
	const spec = `
entry = "limit"

[stage.limit]
type = "ratelimit"
qps = 10
burst = 50
action = "refuse"
next = "resolve"

[stage.resolve]
type = "resolver"
`
	var lookups atomic.Int64
	lookup := func(name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error) {
		lookups.Add(1)
		msg := &dnswire.Message{Header: dnswire.Header{QR: true, RA: true}}
		msg.Question = []dnswire.Question{{Name: name, Type: qtype, Class: dnswire.ClassIN}}
		msg.AddAnswer(dnswire.RR{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 30, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
		return &resolver.Result{Msg: msg, Trace: resolver.Trace{Queries: 1}}, nil
	}
	reg := obs.NewRegistry(simnet.WallClock{})
	p, err := Build(spec, Env{Lookup: lookup, Clock: simnet.WallClock{}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, clients, perG = 32, 8, 300
	names := make([]dnswire.Name, 8)
	for i := range names {
		names[i] = dnswire.NewName(fmt.Sprintf("h%d.example.org", i))
	}
	var wg sync.WaitGroup
	var resolved, limited atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := netip.AddrFrom4([4]byte{10, 0, 0, byte(g % clients)})
			for i := 0; i < perG; i++ {
				q := &Query{Name: names[(g+i)%len(names)], Type: dnswire.TypeA, Client: client}
				resp, err := p.Resolve(context.Background(), q)
				if err != nil || resp.Result == nil {
					t.Errorf("goroutine %d: %+v, %v", g, resp, err)
					return
				}
				switch resp.Verdict {
				case VerdictResolved:
					resolved.Add(1)
				case VerdictLimited:
					limited.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	// Every query got exactly one verdict, the limiter's counters agree with
	// what the callers saw, and only admitted queries reached the resolver.
	// Each client sent 1,200 queries against a 50-token bucket refilling at
	// 10/s, so both verdicts occur.
	if resolved.Load()+limited.Load() != goroutines*perG || resolved.Load() < clients*50 || limited.Load() == 0 {
		t.Fatalf("%d resolved + %d limited of %d queries", resolved.Load(), limited.Load(), goroutines*perG)
	}
	c := reg.Snapshot().Counters
	if int64(c["mw.limit.passed"]) != resolved.Load() || int64(c["mw.limit.limited"]) != limited.Load() || lookups.Load() != resolved.Load() {
		t.Fatalf("callers saw %d resolved, %d limited; mw.limit.passed = %d, mw.limit.limited = %d, lookups = %d",
			resolved.Load(), limited.Load(), c["mw.limit.passed"], c["mw.limit.limited"], lookups.Load())
	}
}
