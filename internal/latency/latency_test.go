package latency

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/simnet"
)

func TestRegionStrings(t *testing.T) {
	want := map[Region]string{AF: "AF", AS: "AS", EU: "EU", NA: "NA", OC: "OC", SA: "SA", Region(99): "??"}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
	if len(AllRegions) != 6 {
		t.Errorf("AllRegions = %v", AllRegions)
	}
}

func TestBaseRTTSymmetricAndSane(t *testing.T) {
	for _, a := range AllRegions {
		for _, b := range AllRegions {
			if BaseRTT(a, b) != BaseRTT(b, a) {
				t.Errorf("RTT(%s,%s) asymmetric", a, b)
			}
			if a == b && BaseRTT(a, b) > 100*time.Millisecond {
				t.Errorf("intra-region RTT(%s) = %v too large", a, BaseRTT(a, b))
			}
			if a != b && BaseRTT(a, b) < BaseRTT(a, a) {
				t.Errorf("inter-region RTT(%s,%s) below intra-region", a, b)
			}
		}
	}
}

func TestPathModelMedian(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := PathModel(EU, NA)
	below := 0
	n := 5000
	for i := 0; i < n; i++ {
		if m.Sample(r) < BaseRTT(EU, NA) {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("median fraction = %.3f", frac)
	}
}

func TestAnycastNearest(t *testing.T) {
	cat := Route53Like()
	if len(cat.Sites) != 45 {
		t.Fatalf("sites = %d, want 45", len(cat.Sites))
	}
	// Every region with a site should pick an in-region site.
	for _, r := range AllRegions {
		near := cat.NearestRegion(r)
		if near != r {
			t.Errorf("nearest site for %s = %s, want in-region", r, near)
		}
	}
	// A catalog without SA sites sends SA clients to NA (closest).
	small := &AnycastCatalog{Sites: []Region{EU, NA}}
	if got := small.NearestRegion(SA); got != NA {
		t.Errorf("SA → %s, want NA", got)
	}
}

// TestAnycastBeatsUnicastTail reproduces the §6.2 shape: against a unicast
// EU origin, anycast helps distant clients' tail latency far more than an
// EU client's median.
func TestAnycastBeatsUnicastTail(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cat := Route53Like()
	uniOC := PathModel(OC, EU)
	anyOC := cat.Model(OC)
	var sumUni, sumAny time.Duration
	for i := 0; i < 2000; i++ {
		sumUni += uniOC.Sample(r)
		sumAny += anyOC.Sample(r)
	}
	if sumAny >= sumUni/3 {
		t.Errorf("anycast for OC clients should be ≫ faster: uni=%v any=%v", sumUni/2000, sumAny/2000)
	}
}

func TestTopology(t *testing.T) {
	topo := NewTopology()
	client := netip.MustParseAddr("10.1.0.1")
	server := netip.MustParseAddr("192.0.2.1")
	anyAddr := netip.MustParseAddr("192.0.2.2")
	topo.Place(client, SA)
	topo.Place(server, EU)
	topo.PlaceAnycast(anyAddr, Route53Like())

	if topo.RegionOf(client) != SA || topo.RegionOf(server) != EU {
		t.Errorf("RegionOf broken")
	}
	if topo.RegionOf(netip.MustParseAddr("10.9.9.9")) != EU {
		t.Errorf("default region should be EU")
	}

	r := rand.New(rand.NewSource(3))
	uni := topo.LatencyFor(client, server)
	anyM := topo.LatencyFor(client, anyAddr)
	var sumU, sumA time.Duration
	for i := 0; i < 1000; i++ {
		sumU += uni.Sample(r)
		sumA += anyM.Sample(r)
	}
	// SA→EU unicast ≈ 210 ms median; SA anycast hits the SA site ≈ 45 ms.
	if sumA >= sumU {
		t.Errorf("anycast should beat transcontinental unicast: %v vs %v", sumA/1000, sumU/1000)
	}
}

func TestTopologyIsSimnetCompatible(t *testing.T) {
	topo := NewTopology()
	net := simnet.NewNetwork(1)
	net.LatencyFor = topo.LatencyFor // compile-time + runtime shape check
	a := netip.MustParseAddr("192.0.2.1")
	net.Attach(a, simnet.HandlerFunc(func(w []byte, _ netip.Addr) []byte { return w }))
	_, rtt, err := net.Exchange(netip.MustParseAddr("10.0.0.1"), a, []byte{1})
	if err != nil || rtt <= 0 {
		t.Errorf("exchange through topology: rtt=%v err=%v", rtt, err)
	}
}

// TestLatencyForAllocFree pins that a simulated exchange's latency draw —
// the model lookup, unicast or anycast, and its sample — allocates nothing:
// every model is a pointer into one table.
func TestLatencyForAllocFree(t *testing.T) {
	topo := NewTopology()
	client, server, anyAddr := netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")
	topo.Place(client, SA)
	topo.PlaceAnycast(anyAddr, Route53Like())
	r := rand.New(rand.NewSource(4))
	allocs := testing.AllocsPerRun(100, func() {
		topo.LatencyFor(client, server).Sample(r)
		topo.LatencyFor(client, anyAddr).Sample(r)
	})
	if allocs != 0 {
		t.Errorf("LatencyFor(…).Sample costs %.1f allocs, want 0", allocs)
	}
}
