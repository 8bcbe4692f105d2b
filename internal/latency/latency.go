// Package latency models wide-area round-trip times by world region, and IP
// anycast site selection, replacing the paper's physical vantage points and
// its Route53 anycast deployment (§5.3, §6.2). Medians are calibrated so
// the paper's orderings hold: intra-region paths are tens of milliseconds,
// inter-continental paths are hundreds, and anycast shortens the tail far
// more than the median.
package latency

import (
	"net/netip"
	"sync"
	"time"

	"dnsttl/internal/simnet"
)

// Region is a coarse world region, matching Figure 10b's breakdown.
type Region uint8

// Regions in the paper's order (AF, AS, EU, NA, OC, SA).
const (
	AF Region = iota
	AS
	EU
	NA
	OC
	SA
)

// AllRegions lists every region.
var AllRegions = []Region{AF, AS, EU, NA, OC, SA}

func (r Region) String() string {
	switch r {
	case AF:
		return "AF"
	case AS:
		return "AS"
	case EU:
		return "EU"
	case NA:
		return "NA"
	case OC:
		return "OC"
	case SA:
		return "SA"
	}
	return "??"
}

// baseRTTMs[a][b] is the median RTT in milliseconds between regions a and b,
// from rough great-circle geography plus typical transit inflation.
var baseRTTMs = [6][6]float64{
	//        AF   AS   EU   NA   OC   SA
	AF: {60, 280, 140, 230, 350, 330},
	AS: {280, 50, 230, 200, 150, 320},
	EU: {140, 230, 25, 110, 280, 210},
	NA: {230, 200, 110, 35, 160, 150},
	OC: {350, 150, 280, 160, 30, 280},
	SA: {330, 320, 210, 150, 280, 45},
}

// BaseRTT returns the median RTT between two regions.
func BaseRTT(a, b Region) time.Duration {
	return time.Duration(baseRTTMs[a][b] * float64(time.Millisecond))
}

// pathSigma is every path's log-normal jitter: wide enough to give
// Internet-like tails without swamping the regional structure.
const pathSigma = 0.45

// pathModels[a][b] is the model of every path from region a to region b,
// built once so that an exchange boxes a pointer into it, not a new value.
var pathModels = func() (m [6][6]simnet.LogNormal) {
	for _, a := range AllRegions {
		for _, b := range AllRegions {
			med := BaseRTT(a, b)
			m[a][b] = simnet.LogNormal{Median: med, Sigma: pathSigma, Floor: med / 4}
		}
	}
	return m
}()

// PathModel produces jittered samples around the inter-region median.
func PathModel(a, b Region) simnet.LatencyModel {
	return &pathModels[a][b]
}

// AnycastCatalog is a set of anycast site locations for one service
// address. Queries reach the nearest site region-wise, which is how anycast
// compresses the RTT tail (§6.2): a client two continents from the unicast
// origin instead reaches an in-region site.
type AnycastCatalog struct {
	Sites []Region
}

// Route53Like returns a 45-site catalog shaped like the paper's anycast
// comparison service: sites concentrated where infrastructure is (many in
// EU/NA, several in AS, a few elsewhere).
func Route53Like() *AnycastCatalog {
	sites := make([]Region, 0, 45)
	add := func(r Region, n int) {
		for i := 0; i < n; i++ {
			sites = append(sites, r)
		}
	}
	add(NA, 14)
	add(EU, 12)
	add(AS, 10)
	add(SA, 4)
	add(OC, 3)
	add(AF, 2)
	return &AnycastCatalog{Sites: sites}
}

// NearestRegion returns the site region with the lowest base RTT from the
// client.
func (c *AnycastCatalog) NearestRegion(client Region) Region {
	best := c.Sites[0]
	for _, s := range c.Sites[1:] {
		if BaseRTT(client, s) < BaseRTT(client, best) {
			best = s
		}
	}
	return best
}

// Model returns the latency model from a client region to the anycast
// service: the path to the nearest site.
func (c *AnycastCatalog) Model(client Region) simnet.LatencyModel {
	return PathModel(client, c.NearestRegion(client))
}

// Topology places addresses in regions and derives per-link latency models
// for simnet. Anycast service addresses are registered with a catalog and
// resolve to the nearest site from each source.
type Topology struct {
	mu      sync.RWMutex
	regions map[netip.Addr]Region
	anycast map[netip.Addr]*AnycastCatalog
	// Default is the region assumed for unplaced addresses.
	Default Region
}

// NewTopology creates an empty topology defaulting unplaced addresses to EU
// (where both the paper's EC2 test servers and most Atlas probes are).
func NewTopology() *Topology {
	return &Topology{
		regions: make(map[netip.Addr]Region),
		anycast: make(map[netip.Addr]*AnycastCatalog),
		Default: EU,
	}
}

// Place pins addr to a region.
func (t *Topology) Place(addr netip.Addr, r Region) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.regions[addr] = r
}

// PlaceAnycast registers addr as an anycast service with the given sites.
func (t *Topology) PlaceAnycast(addr netip.Addr, c *AnycastCatalog) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.anycast[addr] = c
}

// RegionOf returns the region addr was placed in, or the default.
func (t *Topology) RegionOf(addr netip.Addr) Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if r, ok := t.regions[addr]; ok {
		return r
	}
	return t.Default
}

// LatencyFor implements the simnet.Network hook.
func (t *Topology) LatencyFor(src, dst netip.Addr) simnet.LatencyModel {
	srcR := t.RegionOf(src)
	t.mu.RLock()
	cat := t.anycast[dst]
	t.mu.RUnlock()
	if cat != nil {
		return cat.Model(srcR)
	}
	return PathModel(srcR, t.RegionOf(dst))
}
