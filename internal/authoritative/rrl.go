package authoritative

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"dnsttl/internal/bucket"
	"dnsttl/internal/dnswire"
)

// Response Rate Limiting (RRL), the BIND/NSD defense against authoritative
// servers being used as amplifiers and against random-subdomain floods.
// Responses — not queries — are rate limited, per ⟨response band, masked
// client prefix⟩ bucket:
//
//   - positive answers band on the qname, so a flood for one popular name
//     is limited without touching the rest of the zone;
//   - NXDomain and NoData responses band on the *zone origin*, because a
//     water-torture flood never repeats a qname — per-qname buckets would
//     each see rate 1 and pass everything, while the per-zone error band
//     sees the full attack rate;
//   - referrals band on the zone being delegated to.
//
// A limited response is dropped — and every slip-th limited response is
// instead sent truncated (TC=1, answer sections stripped), so an honest
// client whose source address is being spoofed into a bucket can still
// retry over TCP and get a full answer: TCP responses are never limited,
// because the three-way handshake already proves the source address.
type RRLConfig struct {
	// RPS is the sustained responses/second each bucket may emit.
	RPS float64
	// Burst is the bucket depth (responses that may go out back-to-back).
	Burst float64
	// Slip sends every Slip-th limited response as a truncated reply
	// instead of dropping it. 0 drops everything; 1 slips everything
	// (no drops, pure TC); 2 is the BIND default.
	Slip int
	// Prefix4/Prefix6 mask client addresses into buckets (defaults /24
	// and /56 — RRL aggregates by network, not host, since an attacker
	// spoofs addresses within its network freely).
	Prefix4, Prefix6 int
}

// DefaultRRLConfig mirrors BIND's conventional starting point.
func DefaultRRLConfig() RRLConfig {
	return RRLConfig{RPS: 5, Burst: 15, Slip: 2, Prefix4: 24, Prefix6: 56}
}

// ParseRRLConfig parses the authserver -rrl flag grammar:
// "rps=5,burst=15,slip=2,prefix4=24,prefix6=56" — any subset of keys,
// missing keys keep the defaults. The literal "default" (or "") is the
// default config.
func ParseRRLConfig(s string) (RRLConfig, error) {
	cfg := DefaultRRLConfig()
	if s == "" || s == "default" {
		return cfg, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("rrl: want key=value, got %q", part)
		}
		var err error
		switch key {
		case "rps":
			cfg.RPS, err = strconv.ParseFloat(val, 64)
		case "burst":
			cfg.Burst, err = strconv.ParseFloat(val, 64)
		case "slip":
			cfg.Slip, err = strconv.Atoi(val)
		case "prefix4":
			cfg.Prefix4, err = strconv.Atoi(val)
		case "prefix6":
			cfg.Prefix6, err = strconv.Atoi(val)
		default:
			return cfg, fmt.Errorf("rrl: unknown key %q (want rps, burst, slip, prefix4, prefix6)", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("rrl: %s: %w", key, err)
		}
	}
	return cfg, cfg.check()
}

// check is the one validity rule ParseRRLConfig and EnableRRL share: the
// bucket numbers pass bucket.Check, and slip is not negative (a negative
// slip would drop every limited response, never slipping one to TCP).
func (c RRLConfig) check() error {
	if err := bucket.Check(c.RPS, c.Burst, c.Prefix4, c.Prefix6); err != nil {
		return fmt.Errorf("rrl: %w", err)
	}
	if c.Slip < 0 {
		return fmt.Errorf("rrl: slip %d is negative", c.Slip)
	}
	return nil
}

// rrlVerdict is the limiter's decision for one UDP response.
type rrlVerdict uint8

const (
	rrlSend rrlVerdict = iota
	rrlDrop
	rrlSlip
)

type rrlKey struct {
	band   dnswire.Name
	client netip.Addr
}

// rrlState is the limiter attached to a Server by EnableRRL.
type rrlState struct {
	cfg     RRLConfig
	buckets *bucket.Table[rrlKey]
}

// EnableRRL turns on response rate limiting for UDP responses. A config
// ParseRRLConfig would reject — the zero value among them — panics; use
// DefaultRRLConfig as the baseline.
func (s *Server) EnableRRL(cfg RRLConfig) {
	if err := cfg.check(); err != nil {
		panic("authoritative: EnableRRL: " + err.Error())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rrl = &rrlState{cfg: cfg, buckets: bucket.NewTable[rrlKey](cfg.RPS, cfg.Burst, s.Clock)}
}

// limiter returns the current rrl state (nil when disabled).
func (s *Server) limiter() *rrlState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rrl
}

// band classifies a response into its rate-limit band.
func (s *Server) band(q dnswire.Question, resp *dnswire.Message) dnswire.Name {
	if resp.Header.RCode == dnswire.RCodeNXDomain || (resp.Header.RCode == dnswire.RCodeNoError && len(resp.Answer) == 0) {
		// Error band: one bucket per zone, immune to qname randomization.
		if z := s.bestZone(q.Name); z != nil {
			return z.Origin
		}
	}
	return q.Name
}

// check books one would-be UDP response from the (unmasked) client
// against its ⟨band, client prefix⟩ bucket.
func (r *rrlState) check(band dnswire.Name, client netip.Addr) rrlVerdict {
	ok, denied := r.buckets.Take(rrlKey{band: band, client: bucket.MaskClient(client, r.cfg.Prefix4, r.cfg.Prefix6)})
	switch {
	case ok:
		return rrlSend
	case r.cfg.Slip > 0 && denied%r.cfg.Slip == 0:
		return rrlSlip
	}
	return rrlDrop
}

// slipReply builds the truncated stand-in for a limited response: header
// and question only, TC=1, same RCode — enough for an honest client to
// fall back to TCP.
func slipReply(resp *dnswire.Message) *dnswire.Message {
	out := &dnswire.Message{Header: resp.Header}
	out.Header.TC = true
	out.Question = append([]dnswire.Question(nil), resp.Question...)
	return out
}
