package middleware

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
)

// TestPipelineRaceHammer drives the stateful stages — per-client rate
// limiter, singleflight dedup, and the response memo — from many
// goroutines at once on the wall clock. It exists for the -race build:
// the limiter's bucket map, the dedup call table, and the memo's FIFO all
// mutate under concurrent load here, so any missing lock shows up as a
// detector report rather than a production heisenbug.
func TestPipelineRaceHammer(t *testing.T) {
	const spec = `
entry = "limit"

[stage.limit]
type = "ratelimit"
qps = 50000
burst = 100000
action = "refuse"
next = "dedup"

[stage.dedup]
type = "dedup"
next = "memo"

[stage.memo]
type = "cache"
entries = 64
next = "resolve"

[stage.resolve]
type = "resolver"
`
	var lookups atomic.Int64
	lookup := func(name dnswire.Name, qtype dnswire.Type) (*resolver.Result, error) {
		lookups.Add(1)
		// A short real sleep keeps many goroutines inside the dedup
		// leader window at once.
		time.Sleep(50 * time.Microsecond)
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

	const goroutines = 32
	const perG = 300
	names := make([]dnswire.Name, 8)
	for i := range names {
		names[i] = dnswire.NewName(fmt.Sprintf("h%d.example.org", i))
	}
	var wg sync.WaitGroup
	var served atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := netip.AddrFrom4([4]byte{10, 0, byte(g >> 8), byte(g)})
			for i := 0; i < perG; i++ {
				q := &Query{Name: names[(g+i)%len(names)], Type: dnswire.TypeA, Client: client}
				resp, err := p.Resolve(context.Background(), q)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if resp.Result != nil {
					served.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	if got := served.Load(); got != goroutines*perG {
		t.Fatalf("served %d of %d queries", got, goroutines*perG)
	}
	// Dedup and the memo must have absorbed work: strictly fewer upstream
	// lookups than queries proves coalescing/memoization engaged under
	// contention (8 names, 30 s TTL, ~10k queries).
	if l := lookups.Load(); l >= goroutines*perG {
		t.Fatalf("no coalescing: %d lookups for %d queries", l, goroutines*perG)
	}
}
