package dnsttl

import (
	"net/netip"
	"sync"
	"testing"
)

// TestConcurrentLookups hammers one Client from many goroutines over real
// UDP — the shape a resolver daemon sees. Run with -race to check the
// locking across resolver, cache and the UDP path.
func TestConcurrentLookups(t *testing.T) {
	rootZone, err := ParseZone(rootZoneText, NewName("."))
	if err != nil {
		t.Fatal(err)
	}
	orgZone, err := ParseZone(orgZoneText, NewName("example.org"))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewName("a.root-servers.net"), nil)
	srv.AddZone(rootZone)
	srv.AddZone(orgZone)
	addr, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := NewClient(ClientConfig{
		Roots: []netip.Addr{addr.Addr()},
		Net:   loopbackNet(t, addr.Port()),
	})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const lookups = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*lookups)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				res, err := client.Lookup(NewName("www.example.org"), TypeA)
				if err != nil {
					errs <- err
					return
				}
				if res.Msg.Header.RCode != RCodeNoError || len(res.Msg.Answer) != 1 {
					errs <- errUnexpected(res.Msg.Header.RCode.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := client.CacheStats()
	if st.Hits == 0 {
		t.Errorf("concurrent lookups never hit the cache: %+v", st)
	}
}

type errUnexpected string

func (e errUnexpected) Error() string { return "unexpected rcode " + string(e) }
