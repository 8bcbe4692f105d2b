// Package obs is the module's unified telemetry plane: a zero-dependency,
// allocation-conscious metrics registry (atomic counters, gauges, and
// log-bucketed histograms with quantile snapshots), a query-lifecycle
// tracer that records each resolution as a span tree, and the HTTP
// introspection handlers the daemons mount at /metrics and /trace.
//
// Every experiment and both daemons report from the same source: a
// *Registry handed to the resolver, farm, cache, and authoritative server.
// All read paths are snapshot-based and deterministic (sorted keys, clock
// injected via simnet.Clock), so virtual-time experiments produce
// byte-identical telemetry across runs.
//
// Hot-path cost is one atomic op per counter increment and one pointer
// check when a handle is nil: every method on *Counter, *Gauge, *Histogram,
// and *Span is nil-safe, so instrumented code needs no "is telemetry on"
// branches of its own.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"dnsttl/internal/simnet"
)

// Counter is a monotonically increasing atomic counter. Its zero value
// counts: a subsystem whose own statistics read a count holds the Counter in
// its struct and publishes it with Registry.CounterFunc. The nil *Counter —
// Registry.Counter without a registry — is a valid no-op, so call sites
// never branch on whether metrics are enabled.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// numBuckets is the fixed histogram shape: bucket 0 holds values below 1,
// bucket i (1 ≤ i ≤ 62) holds [2^(i-1), 2^i), and bucket 63 is the
// overflow. Power-of-two bucketing keeps Observe allocation-free and
// branch-light (one bits.Len64) while spanning microseconds to weeks.
const numBuckets = 64

// Histogram is a concurrent log-bucketed histogram. Observe is lock-free
// and allocation-free; quantiles are computed from a Snapshot. The nil
// *Histogram is a valid no-op. Construct with NewHistogram (or through a
// Registry), which seeds the extreme trackers.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // math.Float64bits encoding, CAS-updated
	min     atomic.Uint64 // math.Float64bits; valid only when count > 0
	max     atomic.Uint64 // math.Float64bits; valid only when count > 0
	buckets [numBuckets]atomic.Uint64
}

// NewHistogram builds an empty histogram with min/max seeded to ±Inf so
// the first concurrent observers converge on the true extremes.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	if v >= float64(uint64(1)<<62) {
		return numBuckets - 1
	}
	return bits.Len64(uint64(v))
}

// bucketBounds returns bucket i's [lo, hi) value range.
func bucketBounds(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return 0, 1
	case i >= numBuckets-1:
		return float64(uint64(1) << 62), math.Inf(1)
	default:
		return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
	}
}

// Observe records one value. Negative values clamp into the lowest bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	casExtreme(&h.min, v, func(cur float64) bool { return v < cur })
	casExtreme(&h.max, v, func(cur float64) bool { return v > cur })
}

// casExtreme moves the float64-bits cell to v while better(current) holds;
// the cells start at ±Inf (NewHistogram), so any first observation wins.
func casExtreme(cell *atomic.Uint64, v float64, better func(float64) bool) {
	for {
		old := cell.Load()
		if !better(math.Float64frombits(old)) {
			return
		}
		if cell.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// ObserveDuration records d in milliseconds, the unit every latency
// histogram in the module uses.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Bucket is one populated histogram bucket in a snapshot.
type Bucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"` // math.MaxFloat64 stands in for +inf in JSON
	Count uint64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram with the
// quantiles the paper's distribution tables report.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's state and computes p50/p90/p99.
//
// Consistency under concurrent Observe: the bucket array is copied first
// and Count is derived from that copy, so Count always equals the sum of
// the reported buckets. Observe publishes bucket → count → sum → extremes,
// which means a racing snapshot can read a Sum or Min/Max that lags (or
// leads) the copied buckets by the handful of observations in flight. We
// repair rather than lock: Min/Max fall back to the populated buckets'
// bounds while the extreme cells are still at their ±Inf seeds, and Sum is
// clamped into [Count·Min, Count·Max] so the implied mean always lies
// within the observed range. The tolerance is therefore: Count and the
// buckets are exactly consistent; Sum is exact when quiescent and off by
// at most the in-flight observations' values (bounded by the clamp) under
// contention. TestSnapshotRace pins this.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var counts [numBuckets]uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return summarize(&counts, math.Float64frombits(h.sum.Load()),
		math.Float64frombits(h.min.Load()), math.Float64frombits(h.max.Load()))
}

// summarize turns bucket counts into a snapshot whose Count is their total,
// for a live histogram and for a window diff alike. An extreme still at its ±Inf
// seed (a snapshot racing the first observations, which publish the extreme
// cells last, or a diff, which cannot recover the window's extremes) falls
// back to the populated buckets' bounds: ±Inf must never escape, it breaks
// encoding/json, and quantile clamping needs finite extremes. Sum is
// clamped into [Count·Min, Count·Max] so the implied mean stays in range
// even when the sum cell lags the copied buckets.
func summarize(counts *[numBuckets]uint64, sum, minV, maxV float64) HistogramSnapshot {
	var s HistogramSnapshot
	lo, hi := math.Inf(1), 0.0
	for i, n := range counts {
		if n == 0 {
			continue
		}
		s.Count += n
		blo, bhi := bucketBounds(i)
		if math.IsInf(bhi, 1) {
			bhi = math.MaxFloat64
		}
		lo, hi = min(lo, blo), max(hi, bhi)
		s.Buckets = append(s.Buckets, Bucket{Lo: blo, Hi: bhi, Count: n})
	}
	if s.Count == 0 {
		return s
	}
	s.Sum, s.Min, s.Max = sum, minV, maxV
	if math.IsInf(s.Min, 0) {
		s.Min = lo
	}
	if math.IsInf(s.Max, 0) {
		s.Max = hi
	}
	n := float64(s.Count)
	if s.Sum < n*s.Min {
		s.Sum = n * s.Min
	}
	if s.Sum > n*s.Max {
		s.Sum = n * s.Max
	}
	s.P50 = quantileFromBuckets(counts[:], s.Count, 0.50, s.Min, s.Max)
	s.P90 = quantileFromBuckets(counts[:], s.Count, 0.90, s.Min, s.Max)
	s.P99 = quantileFromBuckets(counts[:], s.Count, 0.99, s.Min, s.Max)
	return s
}

// quantileFromBuckets finds the bucket holding rank q·total and linearly
// interpolates within it, clamping to the observed extremes so a
// single-bucket histogram reports exact-ish values.
func quantileFromBuckets(counts []uint64, total uint64, q float64, minV, maxV float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, n := range counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next || i == len(counts)-1 {
			lo, hi := bucketBounds(i)
			if math.IsInf(hi, 1) {
				hi = maxV
			}
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / float64(n)
			}
			v := lo + frac*(hi-lo)
			if v < minV {
				v = minV
			}
			if v > maxV {
				v = maxV
			}
			return v
		}
		cum = next
	}
	return maxV
}

// Registry is a concurrent name → metric table. Get-or-create accessors
// hand out stable handles; hot paths hold the handle and never touch the
// registry again. The nil *Registry is valid: its accessors return nil
// handles, which are themselves no-ops, and its publishers do nothing.
//
// A name has one owner: registering it under a second kind (Counter and
// CounterFunc, say) panics, so a reader never gets a fresh zero for a count
// someone else keeps.
type Registry struct {
	clock simnet.Clock

	mu           sync.RWMutex
	counters     map[string]*Counter
	counterFuncs map[string]func() uint64
	gaugeFuncs   map[string]func() float64
	hists        map[string]*Histogram
}

// NewRegistry builds a registry on the given clock (nil means wall clock).
// The clock only timestamps snapshots; metrics themselves are clock-free,
// so one registry serves both simulated and wall-time daemons.
func NewRegistry(clock simnet.Clock) *Registry {
	if clock == nil {
		clock = simnet.WallClock{}
	}
	return &Registry{
		clock:        clock,
		counters:     make(map[string]*Counter),
		counterFuncs: make(map[string]func() uint64),
		gaugeFuncs:   make(map[string]func() float64),
		hists:        make(map[string]*Histogram),
	}
}

// claimLocked panics when name is already registered as a kind other than
// kind. Caller holds r.mu for writing.
func (r *Registry) claimLocked(name, kind string) {
	held := ""
	switch {
	case r.counters[name] != nil:
		held = "counter"
	case r.counterFuncs[name] != nil:
		held = "counter func"
	case r.gaugeFuncs[name] != nil:
		held = "gauge func"
	case r.hists[name] != nil:
		held = "histogram"
	}
	if held != "" && held != kind {
		panic(fmt.Sprintf("obs: %s registered as a %s and as a %s", name, held, kind))
	}
}

// Counter returns the named counter, creating it on first use: a count that
// exists only to be exported, held by the registry (nil without one).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		r.claimLocked(name, "counter")
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc publishes under name a count its owner keeps — typically one
// obs.Counter in the owner's struct, or a sum over several — read at
// snapshot time. It is a counter in every view: Snapshot.Counters, the
// windowed deltas and rates of History, and the exposition's TYPE line.
// Re-registering replaces.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claimLocked(name, "counter func")
	r.counterFuncs[name] = fn
}

// GaugeFunc publishes under name a level read at snapshot time (entries
// resident, loops running, subscribers registered) — never a count, which
// is a CounterFunc. Re-registering replaces.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claimLocked(name, "gauge func")
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		r.claimLocked(name, "histogram")
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot is a deterministic point-in-time copy of every metric.
type Snapshot struct {
	At         time.Time                    `json:"at"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry. Map iteration order does not leak:
// consumers either index by name or marshal to JSON, which sorts keys.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{At: r.clock.Now()}
	if size := len(r.counters) + len(r.counterFuncs); size > 0 {
		s.Counters = make(map[string]uint64, size)
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
		for n, fn := range r.counterFuncs {
			s.Counters[n] = fn()
		}
	}
	if len(r.gaugeFuncs) > 0 {
		s.Gauges = make(map[string]float64, len(r.gaugeFuncs))
		for n, fn := range r.gaugeFuncs {
			s.Gauges[n] = fn()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.Snapshot()
		}
	}
	return s
}

// WriteJSON emits the expvar-style snapshot JSON served at /metrics.
// encoding/json sorts map keys, so the output is deterministic for a given
// registry state and clock.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
