// Package workload generates client query streams for the cache
// experiments: Zipf-distributed name popularity with Poisson arrivals, the
// standard model for resolver-side DNS demand (and the setting for the
// Jung et al. cache analysis the paper builds on).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dnsttl/internal/compile"
	"dnsttl/internal/dnswire"
)

// Generator produces a query stream over a fixed name population.
type Generator struct {
	// Names is the queryable population, most popular first.
	Names []dnswire.Name
	// Rate is the total arrival rate in queries per second.
	Rate float64

	masses []float64 // per-name popularity, most popular first
	alias  *Alias    // O(1) name draw
	rng    *rand.Rand
}

// New builds a generator over n names under the given base domain, with
// Zipf exponent s (1.0 is classic web-like skew) and total rate qps.
func New(base dnswire.Name, n int, s, qps float64, seed int64) *Generator {
	if n < 1 {
		n = 1
	}
	g := &Generator{Rate: qps, rng: rand.New(rand.NewSource(seed))}
	weights := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		w := 1 / math.Pow(float64(i+1), s)
		weights[i] = w
		total += w
	}
	g.Names = make([]dnswire.Name, n)
	g.masses = make([]float64, n)
	for i := 0; i < n; i++ {
		g.Names[i] = base.Child(fmt.Sprintf("w%04d", i))
		g.masses[i] = weights[i] / total
	}
	g.alias = NewAlias(weights)
	return g
}

// Popularity returns name i's probability mass.
func (g *Generator) Popularity(i int) float64 {
	return g.masses[i]
}

// Next returns the interarrival gap to the next query and its name.
// Gaps are exponential (Poisson process); names follow the Zipf weights via
// an O(1) alias-table draw. Each call consumes exactly one ExpFloat64 and
// one Float64 from the RNG — the same consumption as the former
// binary-search draw — so the gap stream is unchanged across that swap.
func (g *Generator) Next() (time.Duration, dnswire.Name) {
	gap := time.Duration(g.rng.ExpFloat64() / g.Rate * float64(time.Second))
	return gap, g.Names[g.alias.Draw(g.rng.Float64())]
}

// ExpectedHitRate computes the aggregate cache hit rate the Jung et al.
// model predicts for this workload at a given TTL: each name hits
// independently at λᵢT/(1+λᵢT), weighted by its share of queries.
func (g *Generator) ExpectedHitRate(ttl uint32) float64 {
	h := 0.0
	for i := range g.Names {
		p := g.Popularity(i)
		h += p * compile.SteadyHit(p*g.Rate, float64(ttl))
	}
	return h
}
