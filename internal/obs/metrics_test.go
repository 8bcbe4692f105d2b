package obs

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"dnsttl/internal/simnet"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry(nil)
	c := reg.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if reg.Counter("a.count") != c {
		t.Fatal("second lookup returned a different handle")
	}
	v := 2.5
	reg.GaugeFunc("a.gauge", func() float64 { return v })
	v = 1.5
	if got := reg.Snapshot().Gauges["a.gauge"]; got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5 (read at snapshot time)", got)
	}
}

// TestNameHasOneOwner: a count published by its owner is a counter in the
// snapshot, and registering a name under a second kind panics either way
// round, so a reader never gets a fresh zero instead of the owner's count.
func TestNameHasOneOwner(t *testing.T) {
	reg := NewRegistry(nil)
	var owned Counter
	owned.Add(3)
	reg.CounterFunc("x.owned", owned.Value)
	reg.Counter("x.held").Inc()
	if c := reg.Snapshot().Counters; c["x.owned"] != 3 || c["x.held"] != 1 {
		t.Fatalf("counters = %v, want x.owned 3 and x.held 1", c)
	}
	for name, register := range map[string]func(){
		"Counter on a CounterFunc name":   func() { reg.Counter("x.owned") },
		"CounterFunc on a Counter name":   func() { reg.CounterFunc("x.held", owned.Value) },
		"GaugeFunc on a CounterFunc name": func() { reg.GaugeFunc("x.owned", func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			register()
		}()
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var h *Histogram
	var reg *Registry
	c.Inc()
	c.Add(3)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if reg.Counter("x") != nil || reg.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	reg.GaugeFunc("x", func() float64 { return 1 })
	reg.CounterFunc("y", func() uint64 { return 1 })
	if s := reg.Snapshot(); s.Counters != nil || s.Gauges != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestHistogramZeroObservations pins the empty-histogram snapshot: count 0,
// all quantiles 0, no buckets.
func TestHistogramZeroObservations(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty histogram snapshot not zero: %+v", s)
	}
}

// TestHistogramSingleBucket checks quantiles when every observation lands
// in one bucket: interpolation must stay clamped to [min, max].
func TestHistogramSingleBucket(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(10) // bucket [8, 16)
	}
	s := h.Snapshot()
	if s.Count != 100 || len(s.Buckets) != 1 {
		t.Fatalf("want one bucket of 100, got %+v", s)
	}
	if s.Min != 10 || s.Max != 10 {
		t.Fatalf("extremes = [%v, %v], want [10, 10]", s.Min, s.Max)
	}
	if s.P50 != 10 || s.P90 != 10 || s.P99 != 10 {
		t.Fatalf("snapshot percentiles %v/%v/%v, want all clamped to 10", s.P50, s.P90, s.P99)
	}
}

// TestHistogramOverflowBucket checks values beyond the top bucket boundary
// land in the overflow bucket and quantiles clamp to the observed max.
func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram()
	huge := math.MaxFloat64 / 2
	h.Observe(huge)
	h.Observe(1e30)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if len(s.Buckets) != 1 {
		t.Fatalf("want one (overflow) bucket, got %+v", s.Buckets)
	}
	if got := s.Buckets[0].Lo; got != float64(uint64(1)<<62) {
		t.Fatalf("overflow bucket lo = %g", got)
	}
	if s.Max != huge {
		t.Fatalf("max = %g, want %g", s.Max, huge)
	}
	if q := s.P99; q > huge || q < 1e30 {
		t.Fatalf("overflow quantile %g outside [1e30, max]", q)
	}
	// Negative and sub-1 values take the low bucket, never panic.
	h.Observe(-5)
	h.Observe(0.25)
	if s := h.Snapshot(); s.Min != -5 {
		t.Fatalf("min = %v, want -5", s.Min)
	}
}

// TestHistogramConcurrentObserve drives Observe from 8 goroutines and
// verifies no observation is lost and the sum/extremes are exact.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i) / 100)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	n := float64(goroutines * perG)
	wantSum := (n - 1) * n / 2 / 100
	if math.Abs(s.Sum-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	if s.Min != 0 || s.Max != (n-1)/100 {
		t.Fatalf("extremes [%v, %v], want [0, %v]", s.Min, s.Max, (n-1)/100)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

// TestHistogramQuantileMonotone checks quantiles are ordered and bracketed
// for a spread of observations.
func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if !(s.P50 <= s.P90 && s.P90 <= s.P99) {
		t.Fatalf("quantiles not monotone: %v %v %v", s.P50, s.P90, s.P99)
	}
	if s.P50 < 256 || s.P50 > 1000 {
		t.Fatalf("p50 = %v, implausible for 1..1000", s.P50)
	}
	if s.P99 < s.P50 || s.P99 > 1000 {
		t.Fatalf("p99 = %v out of range", s.P99)
	}
}

// TestSnapshotDeterministicUnderVirtualClock pins telemetry determinism on
// the simulated substrate: with a VirtualClock and no metric activity
// between snapshots, consecutive snapshots (and their JSON rendering) are
// byte-identical — including the timestamp.
func TestSnapshotDeterministicUnderVirtualClock(t *testing.T) {
	clock := simnet.NewVirtualClock()
	reg := NewRegistry(clock)
	reg.Counter("resolver.resolutions").Add(7)
	reg.GaugeFunc("cache.entries", func() float64 { return 3 })
	reg.CounterFunc("cache.hits", func() uint64 { return 12 })
	h := reg.Histogram("resolver.latency_ms")
	for i := 0; i < 50; i++ {
		h.Observe(float64(i))
	}

	var a, b bytes.Buffer
	if err := reg.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshots differ under a frozen virtual clock:\n%s\nvs\n%s", a.String(), b.String())
	}
	s1 := reg.Snapshot()
	if !s1.At.Equal(simnet.Epoch) {
		t.Fatalf("snapshot At = %v, want virtual epoch", s1.At)
	}
	clock.Advance(time.Hour)
	if s2 := reg.Snapshot(); !s2.At.Equal(simnet.Epoch.Add(time.Hour)) {
		t.Fatalf("snapshot At did not follow the virtual clock: %v", s2.At)
	}
}

// TestCounterIncrementAllocFree pins the metric hot paths to zero
// allocations: counter increments and histogram observes.
func TestCounterIncrementAllocFree(t *testing.T) {
	reg := NewRegistry(nil)
	c := reg.Counter("hot.counter")
	h := reg.Histogram("hot.hist")
	if allocs := testing.AllocsPerRun(200, func() { c.Inc() }); allocs >= 0.5 {
		t.Errorf("Counter.Inc: %.2f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { h.Observe(12.5) }); allocs >= 0.5 {
		t.Errorf("Histogram.Observe: %.2f allocs/op, want 0", allocs)
	}
	// Nil handles — the disabled-telemetry configuration — are 0-alloc too.
	var nc *Counter
	var nh *Histogram
	if allocs := testing.AllocsPerRun(200, func() { nc.Inc(); nh.Observe(1) }); allocs >= 0.5 {
		t.Errorf("nil handles: %.2f allocs/op, want 0", allocs)
	}
}
