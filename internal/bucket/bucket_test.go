package bucket

import (
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/simnet"
)

func take(t *testing.T, tb *Table[int], k int, wantOK bool, wantDenied int) {
	t.Helper()
	if ok, denied := tb.Take(k); ok != wantOK || denied != wantDenied {
		t.Fatalf("Take(%d) = (%v, %d), want (%v, %d)", k, ok, denied, wantOK, wantDenied)
	}
}

// TestRefillBurstAndDenied: a bucket starts full at burst, refills at rate
// and never past burst, keys are independent, and denied counts refusals
// since the last grant — the cadence RRL slips on.
func TestRefillBurstAndDenied(t *testing.T) {
	clock := simnet.NewVirtualClock()
	tb := NewTable[int](2, 3, clock) // 2 tokens/s, depth 3
	for i := 0; i < 3; i++ {
		take(t, tb, 1, true, 0)
	}
	take(t, tb, 1, false, 1)
	take(t, tb, 1, false, 2)
	take(t, tb, 2, true, 0) // another key has its own bucket

	clock.Advance(500 * time.Millisecond) // earns exactly one token
	take(t, tb, 1, true, 0)
	take(t, tb, 1, false, 1) // a grant restarts the denied count

	clock.Advance(time.Hour) // refill is capped at burst
	for i := 0; i < 3; i++ {
		take(t, tb, 1, true, 0)
	}
	take(t, tb, 1, false, 1)

	clock.Advance(250 * time.Millisecond) // half a token is not a token
	take(t, tb, 1, false, 2)
	clock.Advance(250 * time.Millisecond)
	take(t, tb, 1, true, 0)
}

// TestResetAtCap: the table never holds more than maxBuckets keys — the
// key that would exceed it resets the table wholesale, re-admitting an
// exhausted bucket.
func TestResetAtCap(t *testing.T) {
	tb := NewTable[int](1, 1, simnet.NewVirtualClock())
	take(t, tb, 0, true, 0)
	take(t, tb, 0, false, 1)
	for k := 1; k < maxBuckets; k++ {
		take(t, tb, k, true, 0)
	}
	take(t, tb, 0, false, 2) // table is full, but key 0 is still known
	take(t, tb, maxBuckets, true, 0)
	if n := len(tb.buckets); n != 1 {
		t.Fatalf("table holds %d buckets after the reset, want 1", n)
	}
	take(t, tb, 0, true, 0)
}

func TestMaskClient(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		p4, p6   int
	}{
		{"192.0.2.77", "192.0.2.0", 24, 56},
		{"192.0.2.77", "192.0.2.77", 32, 64},
		{"::ffff:192.0.2.77", "192.0.2.0", 24, 56}, // mapped IPv4 masks as IPv4
		{"2001:db8:1:2:3:4:5:6", "2001:db8:1:2::", 24, 64},
		{"2001:db8:1:2ff:3:4:5:6", "2001:db8:1:200::", 24, 56},
		{"192.0.2.77", "0.0.0.0", 0, 0},
	} {
		if got := MaskClient(netip.MustParseAddr(tc.in), tc.p4, tc.p6); got != netip.MustParseAddr(tc.want) {
			t.Errorf("MaskClient(%s, %d, %d) = %s, want %s", tc.in, tc.p4, tc.p6, got, tc.want)
		}
	}
}
