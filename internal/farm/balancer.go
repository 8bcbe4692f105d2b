package farm

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dnsttl/internal/cache"
	"dnsttl/internal/dnswire"
	"dnsttl/internal/simnet"
)

// Placement is the load-balancing policy deciding which frontend serves a
// query. The choice is what makes cache fragmentation visible or not: with
// PlaceHashQName every name has a home frontend, so even Private caches see
// each name exactly once; with PlaceRandom a popular name lands on every
// frontend and a Private farm fetches it once per frontend.
type Placement uint8

const (
	// PlaceRandom picks a frontend uniformly at random per query — the ECMP
	// front door most anycast services run.
	PlaceRandom Placement = iota
	// PlaceRoundRobin rotates through the frontends in order.
	PlaceRoundRobin
	// PlaceHashQName places by consistent hash of the query name, so a
	// name keeps its frontend even as the fleet is resized.
	PlaceHashQName
)

// placementNames is each Placement's one spelling (the -placement values).
// String, MarshalText and UnmarshalText all read it.
var placementNames = [...]string{PlaceRandom: "random", PlaceRoundRobin: "roundrobin", PlaceHashQName: "hash"}

func (p Placement) String() string {
	if int(p) < len(placementNames) {
		return placementNames[p]
	}
	return fmt.Sprintf("Placement(%d)", uint8(p))
}

func (p Placement) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *Placement) UnmarshalText(b []byte) error {
	i := slices.Index(placementNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("farm: unknown placement %q (want one of %q)", b, placementNames)
	}
	*p = Placement(i)
	return nil
}

// balancer maps a query name to a frontend index.
type balancer interface {
	pick(name dnswire.Name) int
}

func newBalancer(p Placement, frontends int, seed int64) balancer {
	switch {
	case frontends == 1:
		return lone{}
	case p == PlaceRoundRobin:
		return &rrBalancer{n: uint64(frontends)}
	case p == PlaceHashQName:
		return newRing(frontends)
	default:
		return &randomBalancer{n: frontends, rng: rand.New(simnet.NewSource(seed))}
	}
}

// lone is the farm of one: every placement policy picks frontend 0, so it
// takes no lock and draws nothing.
type lone struct{}

func (lone) pick(dnswire.Name) int { return 0 }

// randomBalancer picks uniformly with a deterministic seeded RNG.
type randomBalancer struct {
	mu  sync.Mutex
	n   int
	rng *rand.Rand
}

func (b *randomBalancer) pick(dnswire.Name) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rng.Intn(b.n)
}

// rrBalancer rotates with an atomic counter.
type rrBalancer struct {
	n    uint64
	next atomic.Uint64
}

func (b *rrBalancer) pick(dnswire.Name) int {
	return int((b.next.Add(1) - 1) % b.n)
}

// vnodesPerFrontend is the ring replication factor; 64 virtual points per
// frontend keep the keyspace split within a few percent of even.
const vnodesPerFrontend = 64

// ring is a consistent-hash ring over the frontends. Points are hashes of
// "frontend-i/vnode-j"; a name goes to the owner of the first point at or
// after its own hash. Resizing the fleet therefore moves only ~1/n of the
// names, unlike modulo hashing which reshuffles nearly all of them.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash     uint64
	frontend int
}

func newRing(frontends int) *ring {
	r := &ring{points: make([]ringPoint, 0, frontends*vnodesPerFrontend)}
	for i := 0; i < frontends; i++ {
		for v := 0; v < vnodesPerFrontend; v++ {
			h := cache.KeyHash(dnswire.Name(fmt.Sprintf("frontend-%d/vnode-%d", i, v)), 0)
			r.points = append(r.points, ringPoint{hash: h, frontend: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

func (r *ring) pick(name dnswire.Name) int {
	h := cache.KeyHash(name, 0)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].frontend
}
