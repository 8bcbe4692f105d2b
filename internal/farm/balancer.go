package farm

import (
	"math/rand"
	"sync"

	"dnsttl/internal/simnet"
)

// balancer is the farm's one front door: it sends each query to a frontend
// drawn uniformly at random from a seeded stream — the ECMP placement of the
// public resolvers §4.4 measures, under which a popular name lands on every
// frontend and a Private farm fetches it once per frontend. A farm of one
// always picks frontend 0, taking no lock and drawing nothing.
type balancer struct {
	mu  sync.Mutex
	n   int
	rng *rand.Rand // nil in a farm of one
}

func newBalancer(frontends int, seed int64) *balancer {
	if frontends == 1 {
		return &balancer{n: 1}
	}
	return &balancer{n: frontends, rng: rand.New(simnet.NewSource(seed))}
}

func (b *balancer) pick() int {
	if b.rng == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rng.Intn(b.n)
}
