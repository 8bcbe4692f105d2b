package simnet

import (
	"math"
	"net/netip"
	"strings"
	"testing"
	"time"
)

var (
	faultSrv = netip.MustParseAddr("192.0.2.1")
	faultCli = netip.MustParseAddr("10.0.0.1")
)

// window scripts a parameterless fault (outage, servfail, truncate) of
// server in [start, start+dur).
func window(kind FaultKind, server netip.Addr, start, dur time.Duration) Fault {
	return Fault{Kind: kind, Server: server, Start: start, End: start + dur}
}

func TestFaultScheduleWindows(t *testing.T) {
	s := NewFaultSchedule(
		window(FaultOutage, faultSrv, 10*time.Minute, 20*time.Minute),
		LossBurst(netip.Addr{}, 0, time.Hour, 0.25),
		LatencySpike(faultSrv, 0, time.Hour, 4),
	)
	at := func(d time.Duration) FaultEffects {
		return s.EffectsAt(faultSrv, Epoch.Add(d))
	}
	if e := at(5 * time.Minute); e.Down {
		t.Errorf("down before the outage window: %+v", e)
	}
	if e := at(15 * time.Minute); !e.Down {
		t.Errorf("not down inside the outage window: %+v", e)
	}
	if e := at(30 * time.Minute); e.Down {
		t.Errorf("down after the outage window: %+v", e)
	}
	if e := at(15 * time.Minute); e.LossP != 0.25 || e.Factor != 4 {
		t.Errorf("loss/latency effects wrong: %+v", e)
	}
	// The wildcard loss matches other servers; the targeted spike does not.
	other := netip.MustParseAddr("192.0.2.9")
	if e := s.EffectsAt(other, Epoch.Add(15*time.Minute)); e.LossP != 0.25 || e.Factor != 0 {
		t.Errorf("wildcard/targeted matching wrong for other server: %+v", e)
	}
	// Past every window: nothing.
	if e := at(2 * time.Hour); e != (FaultEffects{}) {
		t.Errorf("effects active past all windows: %+v", e)
	}
}

func TestFaultLossComposition(t *testing.T) {
	s := NewFaultSchedule(
		LossBurst(faultSrv, 0, time.Hour, 0.5),
		LossBurst(faultSrv, 0, time.Hour, 0.5),
	)
	e := s.EffectsAt(faultSrv, Epoch)
	if e.LossP != 0.75 {
		t.Errorf("independent composition of two 0.5 losses = %v, want 0.75", e.LossP)
	}
}

func TestFaultFlap(t *testing.T) {
	s := NewFaultSchedule(Flap(faultSrv, 0, time.Hour, 10*time.Minute, 0.5))
	down := 0
	for m := 0; m < 60; m++ {
		if s.EffectsAt(faultSrv, Epoch.Add(time.Duration(m)*time.Minute)).Down {
			down++
		}
	}
	if down != 30 {
		t.Errorf("flap with duty 0.5 down %d/60 minutes, want 30", down)
	}
	// Phase: down during the first half of each period when Seed is 0.
	if !s.EffectsAt(faultSrv, Epoch.Add(2*time.Minute)).Down {
		t.Error("expected down in first half-period")
	}
	if s.EffectsAt(faultSrv, Epoch.Add(7*time.Minute)).Down {
		t.Error("expected up in second half-period")
	}
	// Seeded schedules shift the phase deterministically per server.
	s2 := NewFaultSchedule(Flap(faultSrv, 0, time.Hour, 10*time.Minute, 0.5))
	s2.Seed = 7
	s3 := NewFaultSchedule(Flap(faultSrv, 0, time.Hour, 10*time.Minute, 0.5))
	s3.Seed = 7
	for m := 0; m < 60; m++ {
		at := Epoch.Add(time.Duration(m) * time.Minute)
		if s2.EffectsAt(faultSrv, at).Down != s3.EffectsAt(faultSrv, at).Down {
			t.Fatal("same-seed flap schedules disagree")
		}
	}
}

func TestParseFaultSchedule(t *testing.T) {
	s, err := ParseFaultSchedule("outage:*:30m+1h; loss:192.0.2.1:0s+2h:0.3; latency:*:0s+0s:10; flap:192.0.2.1:1h+1h:60s,0.25; servfail:*:10m+5m; truncate:192.0.2.1:0s+1h")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 {
		t.Fatalf("parsed %d faults, want 6", s.Len())
	}
	if flap := s.faults[3]; flap.Kind != FaultFlap || flap.Period != time.Minute || flap.Duty != 0.25 {
		t.Errorf("flap entry parsed wrong: %+v", flap)
	}
	e := s.EffectsAt(netip.MustParseAddr("192.0.2.1"), Epoch.Add(45*time.Minute))
	if !e.Down || e.LossP < 0.299 || e.LossP > 0.301 || e.Factor != 10 || !e.Truncate {
		t.Errorf("composed parse effects wrong: %+v", e)
	}
	// Unbounded window (duration 0) stays active forever.
	if got := s.EffectsAt(faultSrv, Epoch.Add(1000*time.Hour)).Factor; got != 10 {
		t.Errorf("unbounded latency window factor = %v, want 10", got)
	}

	for _, bad := range []string{
		"", "outage", "santa:*:0s+1h", "loss:*:0s+1h:1.5", "loss:*:0s+1h",
		"latency:*:0s+1h:-2", "flap:*:0s+1h:60s", "flap:*:0s+1h:60s,2",
		"outage:*:0s+1h:param", "outage:nonsense:0s+1h", "outage:*:bogus",
		"latency:*:0s+1h:Inf", "latency:*:0s+1h:NaN", "loss:*:0s+1h:NaN", "flap:*:0s+1h:60s,NaN",
		"outage:*:0s+-1h", "outage:*:-1h+2h", "outage:*:2562047h+2562047h",
	} {
		if _, err := ParseFaultSchedule(bad); err == nil {
			t.Errorf("ParseFaultSchedule(%q) accepted", bad)
		}
	}

	// The kind table: every kind round-trips through MarshalText and
	// UnmarshalText and String agrees; the zero kind has no spelling, so
	// neither its printed form nor an empty kind parses.
	for k := FaultOutage; k <= FaultFlap; k++ {
		b, err := k.MarshalText()
		var got FaultKind
		if err != nil || got.UnmarshalText(b) != nil || got != k || string(b) != k.String() {
			t.Errorf("%v: MarshalText = %q, %v; back %v", k, b, err, got)
		}
	}
	for _, in := range []string{"", "none", "FaultKind(0)", "Outage"} {
		var k FaultKind
		if err := k.UnmarshalText([]byte(in)); err == nil || !strings.Contains(err.Error(), `"outage" "loss"`) {
			t.Errorf("UnmarshalText(%q) = %v, want an error naming the spellings", in, err)
		}
	}
	if got := FaultKind(0).String(); got != "FaultKind(0)" {
		t.Errorf("FaultKind(0).String() = %q", got)
	}
}

// FuzzParseFaultSchedule: parsing operator input never panics; every fault
// it accepts has finite, in-range parameters and a non-negative window; and
// no exchange under an accepted schedule reports a negative RTT.
func FuzzParseFaultSchedule(f *testing.F) {
	for _, spec := range []string{
		"outage:*:30m+1h; loss:192.0.2.1:0s+2h:0.3", "latency:*:0s+0s:10", "flap:192.0.2.1:1h+1h:60s,0.25",
		"servfail:*:10m+5m; truncate:192.0.2.1:0s+1h", "latency:*:0s+1h:1e300; latency:*:0s+1h:1e300",
		"latency:*:0s+1h:Inf", "loss:*:0s+1h:NaN", "flap:*:0s+1h:60s,NaN", "outage:*:0s+-1h",
	} {
		f.Add(spec)
	}
	query := make([]byte, 12)
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseFaultSchedule(spec)
		if err != nil {
			return
		}
		n := NewNetwork(1)
		n.Attach(faultSrv, HandlerFunc(func(wire []byte, from netip.Addr) []byte { return wire }))
		n.Faults = s
		for _, ft := range s.faults {
			if ft.Start < 0 || ft.End != 0 && ft.End <= ft.Start || ft.Period < 0 ||
				!(ft.LossP >= 0 && ft.LossP <= 1) || !(ft.Duty >= 0 && ft.Duty <= 1) || !(ft.Factor >= 0 && ft.Factor <= math.MaxFloat64) {
				t.Fatalf("%q: accepted %+v", spec, ft)
			}
			for _, at := range []time.Duration{ft.Start, ft.End - 1} {
				if _, rtt, _ := n.AppendExchange(nil, faultCli, faultSrv, query, at); rtt < 0 {
					t.Fatalf("%q: an exchange at %v reported RTT %v", spec, at, rtt)
				}
			}
		}
	})
}

// TestNetworkFaultInjection drives real exchanges through a scripted
// network: outage → timeout, servfail → instant RCODE 2, truncate → TC=1
// empty shell, latency spike → scaled RTT.
func TestNetworkFaultInjection(t *testing.T) {
	clock := NewVirtualClock()
	n := NewNetwork(1)
	n.Clock = clock
	n.LatencyFor = func(src, dst netip.Addr) LatencyModel { return Constant(10 * time.Millisecond) }
	n.Attach(faultSrv, HandlerFunc(func(wire []byte, from netip.Addr) []byte {
		resp := append([]byte(nil), wire...)
		resp[2] |= 0x80
		return resp
	}))
	// A minimal query: header + no question (handlers here don't parse).
	query := make([]byte, 12)
	query[0], query[1] = 0xab, 0xcd

	n.Faults = NewFaultSchedule(
		window(FaultOutage, faultSrv, 0, 10*time.Minute),
		window(FaultServFail, faultSrv, 10*time.Minute, 10*time.Minute),
		window(FaultTruncate, faultSrv, 20*time.Minute, 10*time.Minute),
		LatencySpike(faultSrv, 30*time.Minute, 10*time.Minute, 5),
	)

	if _, rtt, err := n.Exchange(faultCli, faultSrv, query); err != ErrTimeout || rtt != DefaultTimeout {
		t.Errorf("outage window: err=%v rtt=%v, want timeout", err, rtt)
	}

	clock.Advance(10 * time.Minute)
	resp, _, err := n.Exchange(faultCli, faultSrv, query)
	if err != nil {
		t.Fatal(err)
	}
	if resp[3]&0x0F != 0x02 || resp[2]&0x80 == 0 {
		t.Errorf("servfail window: header %x %x, want QR+SERVFAIL", resp[2], resp[3])
	}
	if resp[0] != 0xab || resp[1] != 0xcd {
		t.Errorf("servfail reply lost the query ID: % x", resp[:2])
	}

	clock.Advance(10 * time.Minute)
	resp, _, err = n.Exchange(faultCli, faultSrv, query)
	if err != nil {
		t.Fatal(err)
	}
	if resp[2]&0x02 == 0 {
		t.Errorf("truncate window: TC not set (byte2=%x)", resp[2])
	}

	clock.Advance(10 * time.Minute)
	if _, rtt, err := n.Exchange(faultCli, faultSrv, query); err != nil || rtt != 50*time.Millisecond {
		t.Errorf("latency spike: rtt=%v err=%v, want 50ms", rtt, err)
	}

	// Past all windows: normal delivery again.
	clock.Advance(10 * time.Minute)
	if _, rtt, err := n.Exchange(faultCli, faultSrv, query); err != nil || rtt != 10*time.Millisecond {
		t.Errorf("after windows: rtt=%v err=%v, want 10ms", rtt, err)
	}

	// AppendExchange's offset positions the fault lookup: the schedule is
	// relative to the clock, so a large offset from the last window's start
	// lands past everything too.
	if _, _, err := n.AppendExchange(nil, faultCli, faultSrv, query, time.Hour); err != nil {
		t.Errorf("AppendExchange past windows: %v", err)
	}
}

// TestNetworkFaultOffset proves the per-exchange offset moves the schedule
// window: at clock time 0 an exchange with a large enough offset escapes an
// outage that is still active for offset-0 exchanges.
func TestNetworkFaultOffset(t *testing.T) {
	clock := NewVirtualClock()
	n := NewNetwork(1)
	n.Clock = clock
	n.Attach(faultSrv, HandlerFunc(func(wire []byte, from netip.Addr) []byte {
		resp := append([]byte(nil), wire...)
		resp[2] |= 0x80
		return resp
	}))
	n.Faults = NewFaultSchedule(window(FaultOutage, faultSrv, 0, time.Minute))
	query := make([]byte, 12)
	if _, _, err := n.AppendExchange(nil, faultCli, faultSrv, query, 0); err != ErrTimeout {
		t.Errorf("offset 0 inside outage: err=%v, want timeout", err)
	}
	if _, _, err := n.AppendExchange(nil, faultCli, faultSrv, query, 2*time.Minute); err != nil {
		t.Errorf("offset past outage: %v", err)
	}
}
