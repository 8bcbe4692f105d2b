package obs

import (
	"math"
	"sync"
	"time"
)

// History is the registry's time-series layer: a fixed ring of timestamped
// Snapshots from which windowed counter rates and delta histograms are
// computed on demand (served at /metrics?window=). Sampling is explicit
// (Sample) or periodic (Start), so virtual-time experiments can drive it
// from a simnet clock while daemons run it on a wall ticker.
type History struct {
	reg *Registry

	mu    sync.Mutex
	ring  []Snapshot
	head  int // next write position
	count int // number of valid entries

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewHistory builds a history ring over reg holding up to capacity
// snapshots (0 means 360 — an hour at the default 10 s period).
func NewHistory(reg *Registry, capacity int) *History {
	if capacity <= 0 {
		capacity = 360
	}
	return &History{
		reg:  reg,
		ring: make([]Snapshot, capacity),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Sample appends one snapshot of the registry to the ring.
func (h *History) Sample() {
	if h == nil {
		return
	}
	s := h.reg.Snapshot()
	h.mu.Lock()
	h.ring[h.head] = s
	h.head = (h.head + 1) % len(h.ring)
	if h.count < len(h.ring) {
		h.count++
	}
	h.mu.Unlock()
}

// Start samples every period on a wall ticker until Stop. It samples once
// immediately so a window query right after startup has a baseline.
func (h *History) Start(period time.Duration) {
	if h == nil {
		return
	}
	if period <= 0 {
		period = 10 * time.Second
	}
	h.Sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.Sample()
			case <-h.stop:
				return
			}
		}
	}()
}

// Stop halts a Start loop. Safe to call multiple times or without Start.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
}

// snapshotAt returns the i-th oldest retained snapshot (0 = oldest).
// Caller holds h.mu.
func (h *History) snapshotAt(i int) Snapshot {
	start := (h.head - h.count + len(h.ring)) % len(h.ring)
	return h.ring[(start+i)%len(h.ring)]
}

// CounterDelta is one counter's change over a window.
type CounterDelta struct {
	Delta uint64  `json:"delta"`
	Rate  float64 `json:"rate_per_sec"`
}

// Delta is the change in the registry between two snapshots: counter
// deltas with per-second rates, latest gauge values, and delta histograms
// (bucket differences with quantiles recomputed over just the window's
// observations).
type Delta struct {
	From       time.Time                    `json:"from"`
	To         time.Time                    `json:"to"`
	Seconds    float64                      `json:"seconds"`
	Counters   map[string]CounterDelta      `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Window takes a fresh snapshot and diffs it against the oldest retained
// snapshot no older than d (i.e. the sample closest to now-d from above).
// It reports ok=false when the ring holds no usable baseline yet.
func (h *History) Window(d time.Duration) (Delta, bool) {
	if h == nil {
		return Delta{}, false
	}
	now := h.reg.Snapshot()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return Delta{}, false
	}
	cutoff := now.At.Add(-d)
	// Oldest snapshot inside the window; fall back to the newest retained
	// snapshot older than the cutoff if none is inside (short uptime).
	base := h.snapshotAt(0)
	for i := 0; i < h.count; i++ {
		s := h.snapshotAt(i)
		if !s.At.Before(cutoff) {
			base = s
			break
		}
		base = s
	}
	if !base.At.Before(now.At) {
		return Delta{}, false
	}
	return diffSnapshots(base, now), true
}

// diffSnapshots computes to − from.
func diffSnapshots(from, to Snapshot) Delta {
	d := Delta{
		From:    from.At,
		To:      to.At,
		Seconds: to.At.Sub(from.At).Seconds(),
	}
	if len(to.Counters) > 0 {
		d.Counters = make(map[string]CounterDelta, len(to.Counters))
		for n, v := range to.Counters {
			delta := v - from.Counters[n] // counters are monotonic
			if v < from.Counters[n] {
				delta = v // registry restarted mid-window; report the new count
			}
			cd := CounterDelta{Delta: delta}
			if d.Seconds > 0 {
				cd.Rate = float64(delta) / d.Seconds
			}
			d.Counters[n] = cd
		}
	}
	if len(to.Gauges) > 0 {
		d.Gauges = make(map[string]float64, len(to.Gauges))
		for n, v := range to.Gauges {
			d.Gauges[n] = v
		}
	}
	if len(to.Histograms) > 0 {
		d.Histograms = make(map[string]HistogramSnapshot, len(to.Histograms))
		for n, hs := range to.Histograms {
			d.Histograms[n] = diffHistograms(from.Histograms[n], hs)
		}
	}
	return d
}

// diffHistograms subtracts from's buckets out of to's and recomputes the
// quantiles over the remainder — the latency distribution of just the
// window's observations. Min/Max are bucket-bounded (the true extremes of
// the window are not recoverable from cumulative state).
func diffHistograms(from, to HistogramSnapshot) HistogramSnapshot {
	var counts [numBuckets]uint64
	for _, b := range to.Buckets {
		counts[bucketOf(b.Lo)] = b.Count
	}
	for _, b := range from.Buckets {
		i := bucketOf(b.Lo)
		if counts[i] >= b.Count {
			counts[i] -= b.Count
		} else {
			counts[i] = 0
		}
	}
	var sum float64
	if s := to.Sum - from.Sum; s > 0 {
		sum = s
	}
	return summarize(&counts, sum, math.Inf(1), math.Inf(-1))
}
