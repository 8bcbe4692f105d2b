package zone

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/race"
)

// oneA is the record of a one-A name, n<7 digits>.example.test → 10.x.y.z:
// the shape of every name of the benchmark's 600,000-name zone.
func oneA(i int) dnswire.RR {
	return dnswire.RR{Name: dnswire.Name(fmt.Sprintf("n%07d.example.test.", i)), Type: dnswire.TypeA,
		Class: dnswire.ClassIN, TTL: 300, Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})}}
}

// TestZoneAllocBytesPerName pins what a zone costs per one-record name,
// counting everything the name keeps alive: its owner string, its boxed
// address, its map slot and one RRSet holding its record inline: ≈ 180 B.
// A slice of sets per owner and a separate one-record array made it ≈ 230 B;
// a private map per owner and an ancestor-index entry for the owner itself,
// ≈ 420 B.
func TestZoneAllocBytesPerName(t *testing.T) {
	if race.Enabled {
		t.Skip("heap accounting is pinned without -race")
	}
	const names = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	z := New(dnswire.NewName("example.test"))
	for i := 0; i < names; i++ {
		if err := z.Add(oneA(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perName := float64(after.HeapAlloc-before.HeapAlloc) / names
	runtime.KeepAlive(z)
	t.Logf("%.0f B per one-A name", perName)
	if perName > 200 {
		t.Errorf("zone holds %.0f B per one-A name, want at most 200", perName)
	}
}

// TestZoneAddAllocs pins what Add of a fresh one-A name costs with no watcher
// attached: the RRset, which holds its record (a separate one-record slice
// and a slice of sets per owner made it 3; a map per owner and a
// before/after copy for a Change nobody receives, 5).
func TestZoneAddAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are pinned without -race")
	}
	const runs = 1000
	rrs := make([]dnswire.RR, runs+1)
	for i := range rrs {
		rrs[i] = oneA(i)
	}
	z := New(dnswire.NewName("example.test"))
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := z.Add(rrs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 1 {
		t.Errorf("Add of a fresh one-A name costs %.2f allocs, want at most 1", allocs)
	}
}
