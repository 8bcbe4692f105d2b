package simnet

import (
	"math"
	"math/rand"
	"time"
)

// LatencyModel produces round-trip-time samples for a link. Implementations
// must be safe for use from a single goroutine with the rand they are
// handed.
type LatencyModel interface {
	Sample(r *rand.Rand) time.Duration
}

// Constant always returns the same RTT.
type Constant time.Duration

// Sample returns the constant RTT.
func (c Constant) Sample(*rand.Rand) time.Duration { return time.Duration(c) }

// LogNormal models Internet RTTs: a log-normal body parameterized by its
// median, with an optional floor. Internet path RTT distributions are
// right-skewed with heavy tails, which is what gives the paper's Figure 10
// and 11 their long upper percentiles.
type LogNormal struct {
	// Median is the distribution median (the exp(mu) point).
	Median time.Duration
	// Sigma is the log-space standard deviation; 0.5–1.0 is typical for
	// wide-area paths.
	Sigma float64
	// Floor clamps samples from below (propagation delay can't be beaten).
	Floor time.Duration
}

// Sample draws one RTT.
func (l LogNormal) Sample(r *rand.Rand) time.Duration {
	mu := math.Log(float64(l.Median))
	v := math.Exp(mu + l.Sigma*r.NormFloat64())
	d := time.Duration(v)
	if d < l.Floor {
		d = l.Floor
	}
	return d
}

// CacheHitLatency is the RTT from a stub to its recursive resolver when the
// answer is served from cache. The paper's §1 contrasts "a 15 ms response"
// against "a 1 ms cache hit"; measured stub→recursive RTTs from Atlas probes
// cluster in the low single-digit milliseconds.
var CacheHitLatency = LogNormal{Median: 4 * time.Millisecond, Sigma: 1.1, Floor: 300 * time.Microsecond}
