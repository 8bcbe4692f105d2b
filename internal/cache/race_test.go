package cache

import (
	"fmt"
	"sync"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/simnet"
)

// TestStatsConcurrentWithGetPut drives Get/Put/Stats from many goroutines
// at once. Under -race this proves Stats reads don't race the hot paths;
// the final counts prove no increment was lost.
func TestStatsConcurrentWithGetPut(t *testing.T) {
	c := New(simnet.NewVirtualClock(), Config{})
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := dnswire.NewName(fmt.Sprintf("w%d.example.org", g))
			for i := 0; i < perG; i++ {
				c.Put(Entry{
					Key: Key{Name: name, Type: dnswire.TypeA},
					RRs: []dnswire.RR{dnswire.NewA(string(name), 300, "192.0.2.1")},
					TTL: 300,
				})
				c.Get(name, dnswire.TypeA)
				c.Get(name, dnswire.TypeAAAA) // always a miss
				if i%64 == 0 {
					_ = c.Stats()
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		// A scraper hammering Stats while the workers run, as a /metrics
		// endpoint would.
		for {
			select {
			case <-done:
				return
			default:
				_ = c.Stats()
			}
		}
	}()
	wg.Wait()
	close(done)

	s := c.Stats()
	if want := uint64(goroutines * perG); s.Hits != want {
		t.Fatalf("hits = %d, want %d", s.Hits, want)
	}
	if want := uint64(goroutines * perG); s.Misses != want {
		t.Fatalf("misses = %d, want %d", s.Misses, want)
	}
	if s.Entries != goroutines {
		t.Fatalf("entries = %d, want %d", s.Entries, goroutines)
	}
}

// TestInstrument checks the registry bridge: the counts Instrument
// publishes as counters and the levels as gauges follow the cache's live
// state at snapshot time.
func TestInstrument(t *testing.T) {
	clock := simnet.NewVirtualClock()
	c := New(clock, Config{})
	reg := obs.NewRegistry(clock)
	Instrument(reg, c.Stats)
	Instrument(nil, c.Stats) // nil registry: no-op, no panic

	name := dnswire.NewName("www.example.org")
	c.Put(Entry{
		Key: Key{Name: name, Type: dnswire.TypeA},
		RRs: []dnswire.RR{dnswire.NewA("www.example.org", 300, "192.0.2.1")},
		TTL: 300, Stored: clock.Now(),
	})
	c.Get(name, dnswire.TypeA)
	c.Get(name, dnswire.TypeMX)

	s := reg.Snapshot()
	for k, v := range map[string]uint64{
		MetricHits: 1, MetricMisses: 1, MetricEvictions: 0, MetricStaleHits: 0,
	} {
		if got, ok := s.Counters[k]; !ok || got != v {
			t.Fatalf("%s = %v (published %v), want %v", k, got, ok, v)
		}
	}
	if got := s.Gauges[MetricEntries]; got != 1 {
		t.Fatalf("%s = %v, want 1", MetricEntries, got)
	}
	// A later scrape sees later state: no re-registration needed.
	c.Get(name, dnswire.TypeA)
	if got := reg.Snapshot().Counters[MetricHits]; got != 2 {
		t.Fatalf("%s after second hit = %v, want 2", MetricHits, got)
	}
}
