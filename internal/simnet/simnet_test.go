package simnet

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock()
	if !c.Now().Equal(Epoch) {
		t.Errorf("clock should start at Epoch")
	}
	c.Advance(10 * time.Minute)
	if got := c.Elapsed(); got != 10*time.Minute {
		t.Errorf("Elapsed = %v", got)
	}
	c.Advance(-time.Hour) // ignored
	if got := c.Elapsed(); got != 10*time.Minute {
		t.Errorf("negative Advance must be ignored, Elapsed = %v", got)
	}
	c.Set(Epoch.Add(time.Hour))
	if got := c.Elapsed(); got != time.Hour {
		t.Errorf("Set: Elapsed = %v", got)
	}
}

func TestWallClock(t *testing.T) {
	before := time.Now()
	got := WallClock{}.Now()
	if got.Before(before.Add(-time.Second)) || got.After(before.Add(time.Second)) {
		t.Errorf("WallClock.Now way off: %v", got)
	}
}

func TestLatencyModels(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if d := (Constant(5 * time.Millisecond)).Sample(r); d != 5*time.Millisecond {
		t.Errorf("Constant = %v", d)
	}
}

func TestLogNormalShape(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ln := LogNormal{Median: 30 * time.Millisecond, Sigma: 0.8, Floor: time.Millisecond}
	n := 20000
	below := 0
	var sum time.Duration
	for i := 0; i < n; i++ {
		d := ln.Sample(r)
		if d < ln.Floor {
			t.Fatalf("sample %v under floor", d)
		}
		if d < ln.Median {
			below++
		}
		sum += d
	}
	// Median property: about half the samples below the median.
	frac := float64(below) / float64(n)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("fraction below median = %.3f, want ≈0.5", frac)
	}
	// Right skew: mean well above median.
	mean := sum / time.Duration(n)
	if mean <= ln.Median {
		t.Errorf("log-normal mean %v should exceed median %v", mean, ln.Median)
	}
}

func echoHandler(tag byte) Handler {
	return HandlerFunc(func(wire []byte, from netip.Addr) []byte {
		out := append([]byte{tag}, wire...)
		return out
	})
}

func TestNetworkExchange(t *testing.T) {
	n := NewNetwork(1)
	a := netip.MustParseAddr("192.0.2.1")
	n.Attach(a, echoHandler('x'))
	resp, rtt, err := n.Exchange(netip.MustParseAddr("10.0.0.1"), a, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "x\x01\x02" {
		t.Errorf("resp = %v", resp)
	}
	if rtt != 20*time.Millisecond {
		t.Errorf("default rtt = %v, want 20ms", rtt)
	}
}

func TestNetworkUnreachable(t *testing.T) {
	n := NewNetwork(1)
	_, rtt, err := n.Exchange(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("192.0.2.9"), nil)
	if err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if rtt != DefaultTimeout {
		t.Errorf("rtt = %v, want timeout", rtt)
	}
}

func TestNetworkDownServer(t *testing.T) {
	n := NewNetwork(1)
	a := netip.MustParseAddr("192.0.2.1")
	n.Attach(a, echoHandler('x'))
	if err := n.SetDown(a, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Exchange(netip.MustParseAddr("10.0.0.1"), a, nil); err != ErrTimeout {
		t.Errorf("down server: err = %v, want ErrTimeout", err)
	}
	if err := n.SetDown(a, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Exchange(netip.MustParseAddr("10.0.0.1"), a, nil); err != nil {
		t.Errorf("revived server: err = %v", err)
	}
	if err := n.SetDown(netip.MustParseAddr("192.0.2.99"), true); err == nil {
		t.Errorf("SetDown on unknown address should error")
	}
}

func TestNetworkLoss(t *testing.T) {
	n := NewNetwork(7)
	a := netip.MustParseAddr("192.0.2.1")
	n.Attach(a, echoHandler('x'))
	n.Faults = NewFaultSchedule(LossBurst(netip.Addr{}, 0, 0, 0.5))
	lost := 0
	total := 2000
	for i := 0; i < total; i++ {
		_, rtt, err := n.Exchange(netip.MustParseAddr("10.0.0.1"), a, nil)
		if err == ErrTimeout {
			lost++
			if rtt != DefaultTimeout {
				t.Fatalf("lost query rtt = %v, want the timeout", rtt)
			}
		}
	}
	frac := float64(lost) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("loss fraction = %.3f, want ≈0.5", frac)
	}
	q, l := n.Stats()
	if q != uint64(total) || l != uint64(lost) {
		t.Errorf("Stats = %d, %d; want %d, %d", q, l, total, lost)
	}
}

func TestNetworkPerLinkLatency(t *testing.T) {
	n := NewNetwork(1)
	a := netip.MustParseAddr("192.0.2.1")
	b := netip.MustParseAddr("192.0.2.2")
	n.Attach(a, echoHandler('a'))
	n.Attach(b, echoHandler('b'))
	n.LatencyFor = func(src, dst netip.Addr) LatencyModel {
		if dst == a {
			return Constant(time.Millisecond)
		}
		return Constant(time.Second)
	}
	_, rttA, _ := n.Exchange(netip.MustParseAddr("10.0.0.1"), a, nil)
	_, rttB, _ := n.Exchange(netip.MustParseAddr("10.0.0.1"), b, nil)
	if rttA != time.Millisecond || rttB != time.Second {
		t.Errorf("per-link latency: %v, %v", rttA, rttB)
	}
}

func TestNetworkRTTAboveTimeoutIsTimeout(t *testing.T) {
	n := NewNetwork(1)
	a := netip.MustParseAddr("192.0.2.1")
	n.Attach(a, echoHandler('a'))
	n.LatencyFor = func(src, dst netip.Addr) LatencyModel { return Constant(time.Minute) }
	if _, rtt, err := n.Exchange(netip.MustParseAddr("10.0.0.1"), a, nil); err != ErrTimeout || rtt != DefaultTimeout {
		t.Errorf("slow link should time out: rtt=%v err=%v", rtt, err)
	}
}

func TestNetworkDetach(t *testing.T) {
	n := NewNetwork(1)
	a := netip.MustParseAddr("192.0.2.1")
	n.Attach(a, echoHandler('a'))
	n.Detach(a)
	if _, _, err := n.Exchange(netip.MustParseAddr("10.0.0.1"), a, nil); err != ErrUnreachable {
		t.Errorf("detached server: err = %v", err)
	}
}

func TestNilHandlerResponseIsTimeout(t *testing.T) {
	n := NewNetwork(1)
	a := netip.MustParseAddr("192.0.2.1")
	n.Attach(a, HandlerFunc(func([]byte, netip.Addr) []byte { return nil }))
	if _, _, err := n.Exchange(netip.MustParseAddr("10.0.0.1"), a, nil); err != ErrTimeout {
		t.Errorf("nil handler response: err = %v, want ErrTimeout", err)
	}
}

// TestQuickDeterminism: two networks with identical seeds and workloads see
// identical RTT streams — the reproducibility invariant every experiment
// depends on.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64, rounds uint8) bool {
		run := func() []time.Duration {
			n := NewNetwork(seed)
			a := netip.MustParseAddr("192.0.2.1")
			n.Attach(a, echoHandler('a'))
			n.LatencyFor = func(src, dst netip.Addr) LatencyModel {
				return LogNormal{Median: 30 * time.Millisecond, Sigma: 0.7}
			}
			var out []time.Duration
			for i := 0; i < int(rounds%32); i++ {
				_, rtt, _ := n.Exchange(netip.MustParseAddr("10.0.0.1"), a, nil)
				out = append(out, rtt)
			}
			return out
		}
		x, y := run(), run()
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNetworkTap(t *testing.T) {
	n := NewNetwork(1)
	a := netip.MustParseAddr("192.0.2.1")
	n.Attach(a, echoHandler('x'))
	var events []TapEvent
	n.Tap = func(ev TapEvent) {
		// The slices are views of the client's buffers: keep copies.
		ev.Query, ev.Response = bytes.Clone(ev.Query), bytes.Clone(ev.Response)
		events = append(events, ev)
	}

	// The reply is appended after what buf holds; the tap sees only it, and a
	// failed exchange hands buf back unextended.
	buf := append(make([]byte, 0, 64), "held"...)
	out, _, err := n.AppendExchange(buf, netip.MustParseAddr("10.0.0.1"), a, []byte{1, 2}, 0)
	if err != nil || string(out) != "heldx\x01\x02" || &out[0] != &buf[0] {
		t.Errorf("AppendExchange = %q, %v; want the reply after buf's bytes, in buf", out, err)
	}
	out, _, err = n.AppendExchange(buf, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("192.0.2.99"), []byte{3}, 0)
	if err != ErrUnreachable || string(out) != "held" {
		t.Errorf("failed AppendExchange = %q, %v; want buf unextended", out, err)
	}

	if len(events) != 2 {
		t.Fatalf("tap saw %d events", len(events))
	}
	if events[0].Dst != a || events[0].Err != nil || string(events[0].Response) != "x\x01\x02" {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Err != ErrUnreachable || events[1].Response != nil {
		t.Errorf("event 1 = %+v", events[1])
	}
}
