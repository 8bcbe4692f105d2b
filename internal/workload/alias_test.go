package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
)

// TestAliasMatchesWeights checks the alias table reproduces an arbitrary
// discrete distribution to sampling accuracy.
func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{5, 1, 0.25, 3, 0, 0.75}
	total := 10.0
	a := NewAlias(weights)
	rng := rand.New(rand.NewSource(9))
	counts := make([]int, len(weights))
	const n = 400000
	for i := 0; i < n; i++ {
		counts[a.Draw(rng.Float64())]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		want := w / total
		if math.Abs(got-want) > 0.004 {
			t.Errorf("outcome %d: frequency %.4f, want %.4f", i, got, want)
		}
	}
}

// TestAliasZipfExact compares alias draws against the exact inverse-CDF
// draw on the same uniforms: the two must agree in distribution, checked
// per rank at Zipf head and tail.
func TestAliasZipfExact(t *testing.T) {
	const n = 512
	weights := make([]float64, n)
	cum := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		total += weights[i]
	}
	acc := 0.0
	for i := range cum {
		acc += weights[i] / total
		cum[i] = acc
	}
	a := NewAlias(weights)
	rng := rand.New(rand.NewSource(4))
	aliasCounts := make([]int, n)
	cdfCounts := make([]int, n)
	const draws = 300000
	for i := 0; i < draws; i++ {
		u := rng.Float64()
		aliasCounts[a.Draw(u)]++
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		cdfCounts[lo]++
	}
	for _, rank := range []int{0, 1, 7, 63, 511} {
		ga := float64(aliasCounts[rank]) / draws
		gc := float64(cdfCounts[rank]) / draws
		if math.Abs(ga-gc) > 0.004 {
			t.Errorf("rank %d: alias %.4f vs inverse-CDF %.4f", rank, ga, gc)
		}
	}
}

// TestAliasEdgeCases: empty, all-zero, and single-outcome tables must not
// panic and must return a valid index.
func TestAliasEdgeCases(t *testing.T) {
	for _, weights := range [][]float64{nil, {0, 0, 0}, {2}, {-1, 3}} {
		a := NewAlias(weights)
		for _, u := range []float64{0, 0.5, math.Nextafter(1, 0)} {
			i := a.Draw(u)
			if i < 0 || i >= len(a.prob) {
				t.Errorf("weights %v u=%v: draw %d out of range [0,%d)", weights, u, i, len(a.prob))
			}
		}
	}
	// A negative weight is treated as zero mass.
	a := NewAlias([]float64{-1, 3})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if a.Draw(rng.Float64()) == 0 {
			t.Fatal("negative-weight outcome drawn")
		}
	}
}

// TestNextConsumesOneUniformPerDraw pins the RNG-consumption contract the
// alias swap preserved: one ExpFloat64 + one Float64 per Next call, so the
// gap stream is reproducible independent of how names are drawn.
func TestNextConsumesOneUniformPerDraw(t *testing.T) {
	const seed = 77
	g := New(dnswire.NewName("example.org"), 300, 1.0, 4, seed)
	ref := rand.New(rand.NewSource(seed))
	for i := 0; i < 5000; i++ {
		wantGap := time.Duration(ref.ExpFloat64() / 4 * float64(time.Second))
		ref.Float64() // the name draw's single uniform
		gap, _ := g.Next()
		if gap != wantGap {
			t.Fatalf("draw %d: gap %v, want %v — Next's RNG consumption drifted", i, gap, wantGap)
		}
	}
}
