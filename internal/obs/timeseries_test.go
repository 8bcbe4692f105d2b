package obs

import (
	"testing"
	"time"

	"dnsttl/internal/simnet"
)

// TestHistoryWindow drives a History on a virtual clock and checks the
// windowed counter rates and delta-histogram quantiles.
func TestHistoryWindow(t *testing.T) {
	clock := simnet.NewVirtualClock()
	reg := NewRegistry(clock)
	hits := reg.Counter("cache.hits")
	lat := reg.Histogram("latency_ms")
	hist := NewHistory(reg, 8)

	// t=0: empty baseline.
	hist.Sample()

	// First 10 s: 100 hits, slow answers.
	hits.Add(100)
	for i := 0; i < 50; i++ {
		lat.Observe(100)
	}
	clock.Advance(10 * time.Second)
	hist.Sample()

	// Next 10 s: 40 hits, fast answers.
	hits.Add(40)
	for i := 0; i < 50; i++ {
		lat.Observe(2)
	}
	clock.Advance(10 * time.Second)

	// A 10 s window sees only the second interval.
	d, ok := hist.Window(10 * time.Second)
	if !ok {
		t.Fatal("window returned no delta")
	}
	if d.Seconds != 10 {
		t.Fatalf("window spans %.1fs, want 10", d.Seconds)
	}
	cd := d.Counters["cache.hits"]
	if cd.Delta != 40 || cd.Rate != 4 {
		t.Fatalf("cache.hits delta %+v, want {40 4}", cd)
	}
	dh := d.Histograms["latency_ms"]
	if dh.Count != 50 {
		t.Fatalf("delta histogram count %d, want 50", dh.Count)
	}
	if dh.P50 > 4 {
		t.Fatalf("delta p50 %.1f should reflect only the fast window", dh.P50)
	}

	// A 30 s window falls back to the oldest snapshot and sees everything.
	d, ok = hist.Window(30 * time.Second)
	if !ok {
		t.Fatal("wide window returned no delta")
	}
	if cd := d.Counters["cache.hits"]; cd.Delta != 140 {
		t.Fatalf("wide window delta %d, want 140", cd.Delta)
	}
	if dh := d.Histograms["latency_ms"]; dh.Count != 100 {
		t.Fatalf("wide delta histogram count %d, want 100", dh.Count)
	}
}

// len reports how many snapshots the ring currently holds.
func (h *History) len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// TestHistoryRingEviction fills the ring past capacity and checks the
// oldest snapshots are evicted.
func TestHistoryRingEviction(t *testing.T) {
	clock := simnet.NewVirtualClock()
	reg := NewRegistry(clock)
	c := reg.Counter("n")
	hist := NewHistory(reg, 4)
	for i := 0; i < 10; i++ {
		c.Inc()
		hist.Sample()
		clock.Advance(time.Second)
	}
	if hist.len() != 4 {
		t.Fatalf("ring holds %d snapshots, want 4", hist.len())
	}
	// The oldest retained snapshot is from iteration 6 (counter=7).
	d, ok := hist.Window(time.Hour)
	if !ok {
		t.Fatal("window returned no delta")
	}
	if got := d.Counters["n"].Delta; got != 3 {
		t.Fatalf("delta over full ring %d, want 3 (10 now - 7 oldest)", got)
	}
}

// TestHistoryNilAndEmpty pins the degenerate cases.
func TestHistoryNilAndEmpty(t *testing.T) {
	var h *History
	h.Sample()
	h.Stop()
	if h.len() != 0 {
		t.Fatal("nil history has nonzero length")
	}
	if _, ok := h.Window(time.Second); ok {
		t.Fatal("nil history produced a window")
	}

	reg := NewRegistry(simnet.NewVirtualClock())
	h2 := NewHistory(reg, 0)
	if _, ok := h2.Window(time.Second); ok {
		t.Fatal("empty history produced a window")
	}
}

// TestHistoryStartStop exercises the wall-clock sampling loop.
func TestHistoryStartStop(t *testing.T) {
	reg := NewRegistry(nil)
	reg.Counter("x").Inc()
	h := NewHistory(reg, 16)
	h.Start(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for h.len() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.Stop()
	if h.len() < 3 {
		t.Fatalf("sampler collected %d snapshots, want >= 3", h.len())
	}
}
