package authoritative

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/obs"
	"dnsttl/internal/race"
)

func mustQueryWire(t *testing.T, id uint16, name dnswire.Name, typ dnswire.Type) []byte {
	t.Helper()
	wire, err := dnswire.Encode(dnswire.NewIterativeQuery(id, name, typ))
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestAuthoritativeAnswerAllocs pins the wire path's budget for an answer
// appended to a reused buffer at zero: decoder, query and reply are pooled,
// the decoder borrows a never-seen query name from the zone that owns it,
// and the zone hands out its stored set.
func TestAuthoritativeAnswerAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under -race, so pooled paths allocate")
	}
	const runs = 200
	s := testServer(t)
	z := s.Zone(dnswire.NewName("example.org"))
	queries := make([][]byte, runs+1)
	for i := range queries {
		name := dnswire.NewName(fmt.Sprintf("h%04d.example.org", i))
		z.MustAdd(dnswire.RR{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})}})
		queries[i] = mustQueryWire(t, uint16(i), name, dnswire.TypeA)
	}
	dst := make([]byte, 0, 512)
	s.AppendServeDNS(dst, mustQueryWire(t, 1, dnswire.NewName("www.example.org"), dnswire.TypeA), clientAddr) // fill the pools
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if out := s.AppendServeDNS(dst, queries[next], clientAddr); len(out) == 0 {
			t.Fatal("query dropped")
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("answer costs %.2f allocs/op, want 0", allocs)
	}
}

// TestAuthoritativeNXDomainAllocs pins the wire path's budget for an
// NXDOMAIN three labels below the apex, the water-torture query: the
// wildcard probe at each ancestor allocates nothing, so all that is left is
// the string a never-seen query name costs the decoder.
func TestAuthoritativeNXDomainAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under -race, so pooled paths allocate")
	}
	const runs = 200
	s := testServer(t)
	queries := make([][]byte, runs+1)
	for i := range queries {
		queries[i] = mustQueryWire(t, uint16(i), dnswire.NewName(fmt.Sprintf("nx%d.a.b.example.org", i)), dnswire.TypeA)
	}
	dst := make([]byte, 0, 512)
	s.AppendServeDNS(dst, mustQueryWire(t, 1, dnswire.NewName("nope.example.org"), dnswire.TypeA), clientAddr) // fill the pools
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		out := s.AppendServeDNS(dst, queries[next], clientAddr)
		if len(out) < 4 || dnswire.RCode(out[3]&0xF) != dnswire.RCodeNXDomain {
			t.Fatal("no NXDOMAIN")
		}
		next++
	})
	if allocs > 1 {
		t.Errorf("NXDOMAIN costs %.1f allocs/op, want at most 1", allocs)
	}
}

// TestPooledReplyDoesNotLeak interleaves replies of different shapes — an
// answer, an NXDOMAIN, a referral with glue — through the pooled reply
// message, on several goroutines: every reply must carry exactly its own
// sections and nothing a previous one left in the pool.
func TestPooledReplyDoesNotLeak(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name           string
		rcode          dnswire.RCode
		an, auth, addl int
	}{
		{"www.example.org", dnswire.RCodeNoError, 1, 0, 0},
		{"nope.example.org", dnswire.RCodeNXDomain, 0, 1, 0},
		{"deep.sub.example.org", dnswire.RCodeNoError, 0, 1, 1},
	}
	wires := make([][]byte, len(cases))
	for i, c := range cases {
		wires[i] = mustQueryWire(t, uint16(i), dnswire.NewName(c.name), dnswire.TypeA)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (i + g) % len(cases)
				c := cases[k]
				resp, err := dnswire.Decode(s.ServeDNS(wires[k], clientAddr))
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				if resp.Header.RCode != c.rcode || resp.Header.ID != uint16(k) || resp.Q().Name != dnswire.NewName(c.name) ||
					len(resp.Answer) != c.an || len(resp.Authority) != c.auth || len(resp.Additional) != c.addl {
					t.Errorf("%s: reply carries another reply's data:\n%s", c.name, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestQueryCountConcurrent drives the server from many goroutines: the
// lock-free counter must be exact.
func TestQueryCountConcurrent(t *testing.T) {
	const goroutines, perGoroutine = 8, 500
	s := testServer(t)
	wire := mustQueryWire(t, 7, dnswire.NewName("www.example.org"), dnswire.TypeA)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				s.ServeDNS(wire, clientAddr)
			}
		}()
	}
	wg.Wait()
	if got := s.QueryCount(); got != goroutines*perGoroutine {
		t.Errorf("QueryCount = %d, want %d", got, goroutines*perGoroutine)
	}
}

// TestInstrumentWhileServing publishes the server's counters while four
// goroutines query it: the counts stay where they are, so auth.queries is
// QueryCount, and under -race the publication does not race the handlers.
func TestInstrumentWhileServing(t *testing.T) {
	const goroutines, perGoroutine = 4, 500
	s := testServer(t)
	wire := mustQueryWire(t, 7, dnswire.NewName("www.example.org"), dnswire.TypeA)
	halfway := make(chan struct{}, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				if i == perGoroutine/2 {
					halfway <- struct{}{}
				}
				s.ServeDNS(wire, clientAddr)
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-halfway
	}
	reg := obs.NewRegistry(nil)
	s.Instrument(reg)
	wg.Wait()
	if got, want := reg.Snapshot().Counters[MetricQueries], s.QueryCount(); got != want || want != goroutines*perGoroutine {
		t.Errorf("auth.queries = %d, QueryCount = %d, want both %d", got, want, goroutines*perGoroutine)
	}
}
