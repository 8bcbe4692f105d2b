package zone

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"unsafe"

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
// address, its map slot and one 64 B RRSet holding its record inline:
// ≈ 150 B. A 96 B RRSet that repeated its record's owner, type and TTL and
// held its chain link made it ≈ 180 B; a slice of sets per owner and a separate one-record array,
// ≈ 230 B; a private map per owner and an ancestor-index entry for the
// owner itself, ≈ 420 B.
func TestZoneAllocBytesPerName(t *testing.T) {
	if race.Enabled {
		t.Skip("heap accounting is pinned without -race")
	}
	if got := unsafe.Sizeof(RRSet{}); got != 64 {
		t.Errorf("an RRSet is %d B, want 64, a size class", got)
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
	if perName > 175 {
		t.Errorf("zone holds %.0f B per one-A name, want at most 175", perName)
	}
}

// TestZoneAddAllocs pins what Add costs with no watcher attached. A fresh
// one-A name is one allocation: the RRset, which holds its record (a separate
// one-record slice and a slice of sets per owner made it 3; a map per owner
// and a before/after copy for a Change nobody receives, 5). A record joining
// a set is a new set and its array, 2, and a second type at an owner one new
// set chained ahead of the first: the shape of a generated zone's NS sets
// and glue.
func TestZoneAddAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are pinned without -race")
	}
	const runs = 1000
	ns := func(i, k int) dnswire.RR {
		owner := dnswire.Name(fmt.Sprintf("d%07d.example.test.", i))
		return dnswire.RR{Name: owner, Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.NS{Host: dnswire.Name(fmt.Sprintf("ns%d.", k)) + owner}}
	}
	aaaa := func(i int) dnswire.RR {
		rr := oneA(i)
		rr.Type, rr.Data = dnswire.TypeAAAA, dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 15: byte(i)})}
		return rr
	}
	for _, tc := range []struct {
		name string
		have func(i int) []dnswire.RR // what each owner holds before
		add  func(i int) dnswire.RR
		max  float64
	}{
		{"fresh one-A name", func(int) []dnswire.RR { return nil }, oneA, 1},
		{"2nd NS record", func(i int) []dnswire.RR { return []dnswire.RR{ns(i, 1)} },
			func(i int) dnswire.RR { return ns(i, 2) }, 2},
		{"3rd NS record", func(i int) []dnswire.RR { return []dnswire.RR{ns(i, 1), ns(i, 2)} },
			func(i int) dnswire.RR { return ns(i, 3) }, 2},
		{"2nd type at an owner", func(i int) []dnswire.RR { return []dnswire.RR{oneA(i)} }, aaaa, 1},
	} {
		z := New(dnswire.NewName("example.test"))
		rrs := make([]dnswire.RR, runs+1)
		for i := range rrs {
			z.MustAdd(tc.have(i)...)
			rrs[i] = tc.add(i)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := z.Add(rrs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		t.Logf("%s: %.2f allocs", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("Add of a %s costs %.2f allocs, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}
