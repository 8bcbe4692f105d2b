package compile

import (
	"math"
	"sync"
	"testing"
)

func TestZipfBands(t *testing.T) {
	n, s := 100000, 1.0
	bands := ZipfBands(n, s, 256)
	// Coverage: bands tile [0,n) exactly and mass sums to 1.
	next := 0
	mass := 0.0
	for _, b := range bands {
		if b.Lo != next || b.Hi <= b.Lo {
			t.Fatalf("bands not contiguous at rank %d", next)
		}
		next = b.Hi
		mass += b.Mass
	}
	if next != n {
		t.Fatalf("bands cover %d of %d ranks", next, n)
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("band mass sums to %v", mass)
	}
	// Banding is logarithmic in n.
	if len(bands) > 256+40 {
		t.Errorf("band count %d not logarithmic", len(bands))
	}
	// Head bands are singletons with exact Zipf mass.
	h1 := 0.0
	for i := 0; i < n; i++ {
		h1 += 1 / float64(i+1)
	}
	if got, want := bands[0].Mass, 1/h1; math.Abs(got-want) > 1e-12 {
		t.Errorf("rank-0 mass %v, want %v", got, want)
	}
	// Per-name rate is non-increasing across bands.
	prev := math.Inf(1)
	for _, b := range bands {
		pn := b.PerName()
		if pn > prev+1e-15 {
			t.Fatalf("per-name mass increases at band [%d,%d)", b.Lo, b.Hi)
		}
		prev = pn
	}
}

// TestZipfBandsShared: a partition is computed once per distinct argument
// triple and every caller — concurrent ones included, which is how the
// planet cells ask — gets that one slice; the table it lives in is bounded.
func TestZipfBandsShared(t *testing.T) {
	const n, head = 30000, 64
	want := zipfBands(n, 1.0, head)
	got := make([][]Band, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = ZipfBands(n, 1.0, head)
		}()
	}
	wg.Wait()
	for i, b := range got {
		if &b[0] != &got[0][0] || len(b) != len(want) || cap(b) != len(b) {
			t.Fatalf("caller %d got its own slice (len %d cap %d, want one shared, clipped, len %d)", i, len(b), cap(b), len(want))
		}
	}
	for i, b := range got[0] {
		if b != want[i] {
			t.Fatalf("band %d is %+v, computed afresh %+v", i, b, want[i])
		}
	}
	// Out-of-range arguments clamp before they key the table.
	if a, b := ZipfBands(100, 1.0, 0), ZipfBands(100, 1.0, 1); &a[0] != &b[0] {
		t.Error("headExact 0 and 1 are the same partition but were computed separately")
	}
	for i := 0; i < 2*bandTableMax; i++ {
		ZipfBands(10+i, 1.0, 4)
	}
	bandTable.Lock()
	size := len(bandTable.m)
	bandTable.Unlock()
	if size > bandTableMax {
		t.Errorf("band table holds %d partitions, bound %d", size, bandTableMax)
	}
}

// TestBandedAggregationAccuracy: the banded hit rate must track the exact
// per-name sum closely — banding is a compression, not a model change.
func TestBandedAggregationAccuracy(t *testing.T) {
	n := 50000
	totalLambda := 40.0
	ttl := 300.0
	h := 0.0
	hn := 0.0
	for i := 0; i < n; i++ {
		hn += 1 / float64(i+1)
	}
	for i := 0; i < n; i++ {
		p := 1 / float64(i+1) / hn
		h += p * SteadyHit(totalLambda*p, ttl)
	}
	for _, head := range []int{128, 1024} {
		bands := ZipfBands(n, 1.0, head)
		hb := 0.0
		for _, b := range bands {
			pn := b.PerName()
			hb += b.Mass * SteadyHit(totalLambda*pn, ttl)
		}
		if d := math.Abs(hb - h); d > 0.002 {
			t.Errorf("head=%d: banded hit %.5f vs exact %.5f (Δ %.5f)", head, hb, h, d)
		}
	}
}
