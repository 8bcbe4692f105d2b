package farm

import (
	"fmt"
	"strings"

	"dnsttl/internal/obs"
	"dnsttl/internal/resolver"
)

// FrontendStats is the telemetry of one frontend.
type FrontendStats struct {
	// Client is the number of client resolutions this frontend answered
	// itself (coalesced followers are not counted here).
	Client uint64
	// Hits is how many of those were served from cache.
	Hits uint64
	// Stale counts answers served past their TTL (RFC 8767).
	Stale uint64
	// Coalesced counts resolutions placed on this frontend that instead
	// joined an identical query already in flight somewhere in the farm.
	Coalesced uint64
	// Upstream is the authoritative-query-volume attribution: the number
	// of upstream exchanges this frontend's resolutions cost, which is the
	// load the paper's fragmentation analysis charges to the farm design.
	Upstream uint64
	// Timeouts is how many of those exchanges timed out.
	Timeouts uint64
}

// Stats is the fleet view: one row per frontend plus the aggregate.
type Stats struct {
	PerFrontend []FrontendStats
	Total       FrontendStats
}

// Rates are the fleet-level ratios clients and operators care about, all
// derived from one Stats snapshot so their denominators are consistent.
type Rates struct {
	// Hit is the effective fleet cache-hit rate clients observe: hits plus
	// coalesced joins (neither costs an iteration) over all resolutions.
	Hit float64
	// Stale is the fraction of self-served resolutions answered past their
	// TTL (RFC 8767).
	Stale float64
	// Timeout is the fraction of upstream exchanges that timed out.
	Timeout float64
}

// Rates derives every fleet rate from the snapshot through one divide
// guard, so no rate can disagree with another about what zero traffic means.
func (s Stats) Rates() Rates {
	return Rates{
		Hit:     ratio(s.Total.Hits+s.Total.Coalesced, s.Total.Client+s.Total.Coalesced),
		Stale:   ratio(s.Total.Stale, s.Total.Client),
		Timeout: ratio(s.Total.Timeouts, s.Total.Upstream),
	}
}

// ratio is the single zero-denominator guard behind every fleet rate.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// String renders the fleet table.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %10s %10s %8s %10s %10s %9s\n",
		"frontend", "client", "hits", "stale", "coalesced", "upstream", "timeouts")
	row := func(label string, f FrontendStats) {
		fmt.Fprintf(&b, "%-9s %10d %10d %8d %10d %10d %9d\n",
			label, f.Client, f.Hits, f.Stale, f.Coalesced, f.Upstream, f.Timeouts)
	}
	for i, f := range s.PerFrontend {
		row(fmt.Sprintf("fe%d", i), f)
	}
	row("total", s.Total)
	return s.rateFooter(&b)
}

func (s Stats) rateFooter(b *strings.Builder) string {
	r := s.Rates()
	fmt.Fprintf(b, "hit=%.3f stale=%.3f timeout=%.3f\n", r.Hit, r.Stale, r.Timeout)
	return b.String()
}

// The per-frontend counts, in FrontendStats order. Each is incremented at
// one site, per frontend, whether or not a registry publishes it.
const (
	feClient = iota
	feHits
	feStale
	feCoalesced
	feUpstream
	feTimeouts
	feCounts
)

// feMetrics names each count: a registry publishes it per frontend as
// farm.fe<i>.<suffix> and, where the resolver plane names one, its sum over
// the frontends under that resolver.* name.
var feMetrics = [feCounts]struct{ suffix, sum string }{
	feClient:    {"client", resolver.MetricResolutions},
	feHits:      {"hits", resolver.MetricCacheHits},
	feStale:     {"stale", resolver.MetricStaleServed},
	feCoalesced: {"coalesced", ""},
	feUpstream:  {"upstream", resolver.MetricUpstream},
	feTimeouts:  {"timeouts", resolver.MetricTimeouts},
}

// feCounters is one frontend's lock-free mutable FrontendStats.
type feCounters [feCounts]obs.Counter

func (c *feCounters) snapshot() FrontendStats {
	return FrontendStats{
		Client:    c[feClient].Value(),
		Hits:      c[feHits].Value(),
		Stale:     c[feStale].Value(),
		Coalesced: c[feCoalesced].Value(),
		Upstream:  c[feUpstream].Value(),
		Timeouts:  c[feTimeouts].Value(),
	}
}

// telemetry holds the farm's per-frontend counters.
type telemetry struct {
	fe []feCounters
}

// newTelemetry builds the counters of n frontends and publishes them in reg.
func newTelemetry(n int, reg *obs.Registry) *telemetry {
	t := &telemetry{fe: make([]feCounters, n)}
	for k, m := range feMetrics {
		for i := range t.fe {
			reg.CounterFunc(fmt.Sprintf("farm.fe%d.%s", i, m.suffix), t.fe[i][k].Value)
		}
		if m.sum != "" {
			reg.CounterFunc(m.sum, func() uint64 {
				var sum uint64
				for i := range t.fe {
					sum += t.fe[i][k].Value()
				}
				return sum
			})
		}
	}
	return t
}

// served books one completed resolution's trace to frontend idx.
func (t *telemetry) served(idx int, tr *resolver.Trace) {
	c := &t.fe[idx]
	c[feClient].Inc()
	if tr.CacheHit {
		c[feHits].Inc()
	}
	if tr.Stale {
		c[feStale].Inc()
	}
	c[feUpstream].Add(uint64(tr.Queries))
	c[feTimeouts].Add(uint64(tr.Timeouts))
}

// coalesced books one join (called at join time, while the leader is still
// in flight).
func (t *telemetry) coalesced(idx int) {
	t.fe[idx][feCoalesced].Inc()
}

// Stats snapshots the fleet telemetry.
func (f *Farm) Stats() Stats {
	out := Stats{PerFrontend: make([]FrontendStats, len(f.telemetry.fe))}
	for i := range f.telemetry.fe {
		fe := f.telemetry.fe[i].snapshot()
		out.PerFrontend[i] = fe
		out.Total.Client += fe.Client
		out.Total.Hits += fe.Hits
		out.Total.Stale += fe.Stale
		out.Total.Coalesced += fe.Coalesced
		out.Total.Upstream += fe.Upstream
		out.Total.Timeouts += fe.Timeouts
	}
	return out
}
