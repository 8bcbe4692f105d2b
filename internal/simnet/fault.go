package simnet

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"time"
)

// FaultKind enumerates the failure modes a FaultSchedule can inject. They
// are the partial, time-varying regimes Moura et al.'s root-DDoS study and
// RFC 8767 identify as the realistic shape of authoritative failure — not
// the binary all-down window of a naive outage model.
type FaultKind uint8

const (
	// FaultOutage makes the matched servers hard-down for the window:
	// queries cost the full timeout and get no reply.
	FaultOutage FaultKind = iota + 1
	// FaultLoss adds packet loss with probability LossP for the window.
	FaultLoss
	// FaultLatency multiplies sampled RTTs by Factor for the window.
	FaultLatency
	// FaultServFail makes the matched servers answer instantly with
	// SERVFAIL — an overloaded or broken backend rather than a dead one.
	FaultServFail
	// FaultTruncate makes the matched servers reply with TC=1 and empty
	// sections, as anycast sites under attack shed load.
	FaultTruncate
	// FaultFlap alternates the matched servers between down and up with
	// Period and Duty: down for the first Duty fraction of each period.
	FaultFlap
)

// faultKindNames is each FaultKind's one spelling in the schedule grammar;
// String, MarshalText and UnmarshalText all read it. The zero kind has
// none, so no spec can name it.
var faultKindNames = [...]string{FaultOutage: "outage", FaultLoss: "loss", FaultLatency: "latency",
	FaultServFail: "servfail", FaultTruncate: "truncate", FaultFlap: "flap"}

func (k FaultKind) String() string {
	if k != 0 && int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

func (k FaultKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *FaultKind) UnmarshalText(b []byte) error {
	i := slices.Index(faultKindNames[:], string(b))
	if i <= 0 {
		return fmt.Errorf("unknown kind %q (want one of %q)", b, faultKindNames[1:])
	}
	*k = FaultKind(i)
	return nil
}

// Fault is one scripted fault window.
type Fault struct {
	Kind FaultKind
	// Server is the affected destination; the zero Addr matches every
	// server.
	Server netip.Addr
	// Start and End bound the window, measured from the schedule origin.
	// End <= Start means an unbounded window.
	Start, End time.Duration
	// LossP is the loss probability for FaultLoss.
	LossP float64
	// Factor is the RTT multiplier for FaultLatency.
	Factor float64
	// Period and Duty shape FaultFlap: within the window the server is
	// down while (t-Start) mod Period < Duty*Period.
	Period time.Duration
	Duty   float64
}

// matches reports whether the fault applies to queries toward dst at
// schedule-relative time el.
func (f Fault) matches(dst netip.Addr, el time.Duration) bool {
	if el < f.Start || (f.End > f.Start && el >= f.End) {
		return false
	}
	return !f.Server.IsValid() || f.Server == dst
}

// FaultEffects is the composed failure state of one server at one instant.
type FaultEffects struct {
	// Down means the query is swallowed: full-timeout, no reply.
	Down bool
	// LossP is the probability that the query or its reply is lost.
	LossP float64
	// Factor multiplies the sampled RTT; 0 means no change.
	Factor float64
	// ServFail synthesizes an instant SERVFAIL reply.
	ServFail bool
	// Truncate synthesizes an empty TC=1 reply.
	Truncate bool
}

// FaultSchedule is a deterministic, clock-driven script of fault windows.
// It is immutable once runs begin: EffectsAt only reads, so concurrent
// exchanges never contend, and the same (schedule, clock, seed) triple
// replays byte-identically at any concurrency.
type FaultSchedule struct {
	// Seed offsets each flapping server's phase deterministically, so a
	// fleet of flapping servers doesn't blink in lockstep. Zero keeps all
	// phases aligned at Epoch, where the windows are anchored.
	Seed int64

	faults []Fault
}

// NewFaultSchedule builds a schedule from fault windows.
func NewFaultSchedule(faults ...Fault) *FaultSchedule {
	s := &FaultSchedule{}
	s.Add(faults...)
	return s
}

// Add appends fault windows. Not safe to call concurrently with EffectsAt.
func (s *FaultSchedule) Add(faults ...Fault) {
	s.faults = append(s.faults, faults...)
}

// Len reports the number of scripted windows.
func (s *FaultSchedule) Len() int {
	if s == nil {
		return 0
	}
	return len(s.faults)
}

// EffectsAt composes every fault matching queries toward dst at absolute
// time t. Loss probabilities compose as independent events; latency factors
// multiply; any matching outage or down flap phase wins over reply faults.
func (s *FaultSchedule) EffectsAt(dst netip.Addr, t time.Time) FaultEffects {
	var e FaultEffects
	if s == nil || len(s.faults) == 0 {
		return e
	}
	el := t.Sub(Epoch)
	for _, f := range s.faults {
		if !f.matches(dst, el) {
			continue
		}
		switch f.Kind {
		case FaultOutage:
			e.Down = true
		case FaultLoss:
			e.LossP = 1 - (1-e.LossP)*(1-f.LossP)
		case FaultLatency:
			if f.Factor > 0 {
				if e.Factor == 0 {
					e.Factor = f.Factor
				} else {
					e.Factor *= f.Factor
				}
			}
		case FaultServFail:
			e.ServFail = true
		case FaultTruncate:
			e.Truncate = true
		case FaultFlap:
			if f.Period <= 0 {
				e.Down = true
				continue
			}
			phase := (el - f.Start + flapPhase(s.Seed, dst, f.Period)) % f.Period
			if float64(phase) < f.Duty*float64(f.Period) {
				e.Down = true
			}
		}
	}
	return e
}

// flapPhase derives a deterministic per-server phase offset in [0, period)
// from the schedule seed, so same-seed runs are byte-identical while
// distinct servers flap out of phase.
func flapPhase(seed int64, dst netip.Addr, period time.Duration) time.Duration {
	if seed == 0 {
		return 0
	}
	return time.Duration(seedMix(seed, dst) % uint64(period))
}

// ParseFaultSchedule parses the compact schedule grammar used by the CLI
// flags and the chaos harness. Entries are semicolon-separated:
//
//	kind:server:start+duration[:params]
//
// where kind is outage|loss|latency|servfail|truncate|flap, server is an IP
// address or "*" for all servers, start and duration are Go durations
// ("30m+1h"; neither negative, a duration of 0 means unbounded), and
// params, finite numbers, depend on kind:
//
//	loss:*:30m+1h:0.5        → 50 % loss
//	latency:*:0s+2h:10       → RTTs ×10
//	flap:192.0.2.1:0s+2h:60s,0.5 → 60 s period, down half of each
//
// outage, servfail, and truncate take no params.
func ParseFaultSchedule(spec string) (*FaultSchedule, error) {
	s := NewFaultSchedule()
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		f, err := parseFault(entry)
		if err != nil {
			return nil, fmt.Errorf("simnet: fault %q: %w", entry, err)
		}
		s.Add(f)
	}
	if s.Len() == 0 {
		return nil, fmt.Errorf("simnet: empty fault schedule %q", spec)
	}
	return s, nil
}

func parseFault(entry string) (Fault, error) {
	parts := strings.Split(entry, ":")
	if len(parts) < 3 {
		return Fault{}, fmt.Errorf("want kind:server:start+dur[:params]")
	}
	var f Fault
	if err := f.Kind.UnmarshalText([]byte(parts[0])); err != nil {
		return Fault{}, err
	}
	if parts[1] != "*" {
		a, err := netip.ParseAddr(parts[1])
		if err != nil {
			return Fault{}, err
		}
		f.Server = a
	}
	startDur, dur, ok := strings.Cut(parts[2], "+")
	if !ok {
		return Fault{}, fmt.Errorf("window %q: want start+duration", parts[2])
	}
	start, err := time.ParseDuration(startDur)
	if err != nil {
		return Fault{}, err
	}
	d, err := time.ParseDuration(dur)
	if err != nil {
		return Fault{}, err
	}
	if start < 0 || d < 0 || start+d < start {
		return Fault{}, fmt.Errorf("window %q: want a non-negative start and duration", parts[2])
	}
	f.Start = start
	if d > 0 {
		f.End = start + d
	}
	param := ""
	if len(parts) > 3 {
		param = parts[3]
	}
	switch f.Kind {
	case FaultLoss:
		p, err := strconv.ParseFloat(param, 64)
		if err != nil || !(p >= 0 && p <= 1) {
			return Fault{}, fmt.Errorf("loss probability %q: want a float in [0,1]", param)
		}
		f.LossP = p
	case FaultLatency:
		x, err := strconv.ParseFloat(param, 64)
		if err != nil || !(x > 0 && x <= math.MaxFloat64) {
			return Fault{}, fmt.Errorf("latency factor %q: want a positive finite float", param)
		}
		f.Factor = x
	case FaultFlap:
		period, duty, ok := strings.Cut(param, ",")
		if !ok {
			return Fault{}, fmt.Errorf("flap params %q: want period,duty", param)
		}
		f.Period, err = time.ParseDuration(period)
		if err != nil || f.Period <= 0 {
			return Fault{}, fmt.Errorf("flap period %q: want a positive duration", period)
		}
		f.Duty, err = strconv.ParseFloat(duty, 64)
		if err != nil || !(f.Duty >= 0 && f.Duty <= 1) {
			return Fault{}, fmt.Errorf("flap duty %q: want a float in [0,1]", duty)
		}
	default:
		if param != "" {
			return Fault{}, fmt.Errorf("%s takes no params", f.Kind)
		}
	}
	return f, nil
}

// Convenience constructors for the common windows.

// LossBurst scripts loss probability p toward server (zero Addr = all) in
// [start, start+dur).
func LossBurst(server netip.Addr, start, dur time.Duration, p float64) Fault {
	return Fault{Kind: FaultLoss, Server: server, Start: start, End: start + dur, LossP: p}
}

// LatencySpike scripts RTTs multiplied by factor in the window.
func LatencySpike(server netip.Addr, start, dur time.Duration, factor float64) Fault {
	return Fault{Kind: FaultLatency, Server: server, Start: start, End: start + dur, Factor: factor}
}

// Flap scripts down/up flapping with the given period and down duty cycle.
func Flap(server netip.Addr, start, dur, period time.Duration, duty float64) Fault {
	return Fault{Kind: FaultFlap, Server: server, Start: start, End: start + dur, Period: period, Duty: duty}
}
