// Package atlas simulates a RIPE-Atlas-style measurement platform: a fleet
// of probes spread unevenly over world regions (the real platform skews
// European), each probing through one or more recursive resolvers. A
// (probe, resolver) pair is a vantage point (VP), the paper's unit of
// observation (§3.2). Most VPs own a private resolver; VPs of a public
// service share one farm.Farm per (profile, region) and call it in-process,
// so a probe measures the answering frontend's own Result.
package atlas

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strings"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/farm"
	"dnsttl/internal/latency"
	"dnsttl/internal/population"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
)

// VP is one vantage point: a probe bound to one recursive resolver.
type VP struct {
	ID      int
	ProbeID int
	Region  latency.Region
	// Resolver is the recursive this VP queries — a full iterative
	// resolver of its own, or a farm shared with other VPs (public
	// resolver services).
	Resolver resolver.Lookuper
	// Profile names the resolver's behavioral family.
	Profile string
	// Shared marks VPs using a shared public resolver.
	Shared bool
	// Stub models the probe→resolver RTT.
	Stub simnet.LatencyModel
}

// Response is one probe measurement.
type Response struct {
	VPID, ProbeID int
	Region        latency.Region
	Profile       string
	Round         int
	Time          time.Time
	// RTT is what the probe saw: stub RTT plus the resolver's upstream
	// work (zero upstream for cache hits).
	RTT time.Duration
	// TTL is the TTL in the first answer record, the quantity behind
	// Figures 1 and 2.
	TTL uint32
	// Answer is the last answer record's RDATA — the end of a CNAME
	// chain — which the §4 experiments compare to detect which server
	// content a VP received; nil without an answer.
	Answer dnswire.RData
	// RCode, CacheHit, Stale and FinalServer describe how the answer was
	// produced.
	RCode       dnswire.RCode
	CacheHit    bool
	Stale       bool
	FinalServer netip.Addr
	// Err is non-nil when the probe got no usable answer.
	Err error
}

// regionWeights reflects the real platform's skew (§7: "skewed towards
// Europe").
var regionWeights = []struct {
	r latency.Region
	w float64
}{
	{latency.EU, 0.55},
	{latency.NA, 0.15},
	{latency.AS, 0.12},
	{latency.AF, 0.07},
	{latency.SA, 0.06},
	{latency.OC, 0.05},
}

// RegionShares returns the platform's region skew as parallel slices of
// regions and probability shares (summing to 1), most heavily weighted
// first. The workload compiler scales per-region arrival rates by these
// shares so a planet-scale population inherits the same geography the
// simulated fleet samples from.
func RegionShares() ([]latency.Region, []float64) {
	regions := make([]latency.Region, len(regionWeights))
	shares := make([]float64, len(regionWeights))
	for i, rw := range regionWeights {
		regions[i] = rw.r
		shares[i] = rw.w
	}
	return regions, shares
}

func sampleRegion(r *rand.Rand) latency.Region {
	x := r.Float64()
	for _, rw := range regionWeights {
		if x < rw.w {
			return rw.r
		}
		x -= rw.w
	}
	return latency.OC
}

// FleetConfig sizes and shapes a fleet.
type FleetConfig struct {
	// Probes is the number of probes; VPs ≈ Probes × (1 + MultiVPFrac).
	Probes int
	// MultiVPFrac is the fraction of probes with a second resolver
	// (the paper sees ~15k VPs from ~9k probes).
	MultiVPFrac float64
	// SharedFrac is the probability that a VP whose profile is a public
	// service (google-like, opendns-like) uses the shared regional
	// instance rather than a private resolver.
	SharedFrac float64
	// Mix is the resolver population; nil means population.DefaultMix.
	Mix population.Mix
	// Seed drives all fleet randomness.
	Seed int64
}

// Fleet is a built VP fleet.
type Fleet struct {
	VPs   []*VP
	Topo  *latency.Topology
	rng   *rand.Rand
	clock simnet.Clock
	// scratch is the storage every probe's resolution is written into
	// (resolver.Lookuper): a Response keeps values read out of it, and the
	// shared rng already makes Run single-goroutine.
	scratch resolver.Result
}

// farmFrontends sizes every shared public-resolver instance.
const farmFrontends = 4

type sharedKey struct {
	profile string
	region  latency.Region
}

// NewFleet builds the fleet: probes with regions, resolvers with profiles,
// shared public-resolver instances per (profile, region), and topology
// placements for every address.
func NewFleet(cfg FleetConfig, b *population.Builder, topo *latency.Topology) *Fleet {
	if cfg.Probes <= 0 {
		cfg.Probes = 100
	}
	mix := cfg.Mix
	if mix == nil {
		mix = population.DefaultMix()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Fleet{Topo: topo, rng: rng, clock: b.Clock}
	shared := make(map[sharedKey]resolver.Lookuper)
	vpID := 0
	resolverN := 0

	allocAddr := func(region latency.Region) netip.Addr {
		resolverN++
		addr := netip.AddrFrom4([4]byte{172, 16 + byte(resolverN>>16), byte(resolverN >> 8), byte(resolverN)})
		topo.Place(addr, region)
		return addr
	}
	newResolver := func(p population.Profile, region latency.Region) *resolver.Resolver {
		return b.Build(p, allocAddr(region), rng.Int63())
	}
	// newFarm builds a public service the way §4.4 found them deployed:
	// frontends with independent caches behind one service address, a
	// random one answering each query (farm.Private, the zero value, behind
	// the farm's random balancer). farm.New sources frontend i from base+i, and
	// allocAddr hands out consecutive addresses, so every frontend is
	// placed in the VPs' region.
	newFarm := func(p population.Profile, region latency.Region) resolver.Lookuper {
		base := allocAddr(region)
		for i := 1; i < farmFrontends; i++ {
			allocAddr(region)
		}
		return farm.New(farm.Config{
			Frontends: farmFrontends,
			Policy:    p.Policy,
			Seed:      rng.Int63(),
		}, base, b.Net, b.Clock, b.RootHints)
	}

	for probe := 0; probe < cfg.Probes; probe++ {
		region := sampleRegion(rng)
		probeAddr := netip.AddrFrom4([4]byte{10, byte(probe >> 16), byte(probe >> 8), byte(probe)})
		topo.Place(probeAddr, region)

		nVPs := 1
		if rng.Float64() < cfg.MultiVPFrac {
			nVPs = 2
		}
		for v := 0; v < nVPs; v++ {
			p := mix.Pick(rng)
			isPublic := p.Name == "google-like" || p.Name == "opendns-like"
			var res resolver.Lookuper
			sharedVP := false
			var stub simnet.LatencyModel
			if isPublic && rng.Float64() < cfg.SharedFrac {
				k := sharedKey{p.Name, region}
				if shared[k] == nil {
					shared[k] = newFarm(p, region)
				}
				res = shared[k]
				sharedVP = true
				// Public resolvers are reached over anycast: longer stub
				// RTT than a LAN resolver, still intra-region.
				stub = simnet.LogNormal{Median: 18 * time.Millisecond, Sigma: 0.6, Floor: 2 * time.Millisecond}
			} else {
				res = newResolver(p, region)
				stub = simnet.CacheHitLatency
			}
			f.VPs = append(f.VPs, &VP{
				ID:       vpID,
				ProbeID:  probe,
				Region:   region,
				Resolver: res,
				Profile:  p.Name,
				Shared:   sharedVP,
				Stub:     stub,
			})
			vpID++
		}
	}
	return f
}

// Schedule describes one measurement campaign: what to ask, how often, and
// for how long — the paper's "query every 600 s for two hours" discipline.
type Schedule struct {
	// Name is the query name. If PerProbe is set, the literal "PROBEID" in
	// Name is replaced with the probe number, reproducing the paper's
	// uncacheable unique-name trick (§4.2, §6.2).
	Name dnswire.Name
	Type dnswire.Type
	// Interval separates rounds; the paper uses 600 s.
	Interval time.Duration
	// Rounds is the number of probe rounds.
	Rounds int
	// PerProbe substitutes the probe ID into the query name.
	PerProbe bool
	// Jitter spreads each round's probes uniformly over the interval
	// instead of firing them simultaneously — how the real platform
	// schedules, and what lets shared caches decay between clients so
	// answered TTLs take intermediate values (Figures 1 and 2).
	Jitter bool
	// OnRound, when non-nil, runs before each round with the round number;
	// experiments use it to renumber servers or change TTLs mid-campaign.
	OnRound func(round int)
}

// queryName resolves the schedule's name for a given probe.
func (s Schedule) queryName(probeID int) dnswire.Name {
	if !s.PerProbe {
		return s.Name
	}
	// Name canonicalization lowercased the token.
	name := strings.ReplaceAll(string(s.Name), "probeid", fmt.Sprintf("p%d", probeID))
	return dnswire.NewName(name)
}

// Run executes the campaign on the given virtual clock, advancing it by
// Interval between rounds, and returns every response.
func (f *Fleet) Run(clock *simnet.VirtualClock, s Schedule) []Response {
	out := make([]Response, 0, len(f.VPs)*s.Rounds)
	// Each VP asks the same name every round, so it is built once.
	names := make([]dnswire.Name, len(f.VPs))
	for i, vp := range f.VPs {
		names[i] = s.queryName(vp.ProbeID)
	}
	var offsets []time.Duration
	var order []int
	if s.Jitter {
		offsets, order = make([]time.Duration, len(f.VPs)), make([]int, len(f.VPs))
	}
	for round := 0; round < s.Rounds; round++ {
		if s.OnRound != nil {
			s.OnRound(round)
		}
		start := clock.Now()
		if !s.Jitter {
			for i, vp := range f.VPs {
				out = append(out, f.probeOnce(clock, vp, round, names[i], s.Type))
			}
		} else {
			for i := range f.VPs {
				offsets[i] = time.Duration(f.rng.Int63n(int64(s.Interval)))
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return offsets[order[a]] < offsets[order[b]] })
			for _, i := range order {
				clock.Set(start.Add(offsets[i]))
				out = append(out, f.probeOnce(clock, f.VPs[i], round, names[i], s.Type))
			}
		}
		clock.Set(start.Add(s.Interval))
	}
	return out
}

func (f *Fleet) probeOnce(clock simnet.Clock, vp *VP, round int, name dnswire.Name, qtype dnswire.Type) Response {
	res, err := vp.Resolver.ResolveInto(context.Background(), &f.scratch, name, qtype)
	r := Response{
		VPID:    vp.ID,
		ProbeID: vp.ProbeID,
		Region:  vp.Region,
		Profile: vp.Profile,
		Round:   round,
		Time:    clock.Now(),
		Err:     err,
	}
	r.RTT = vp.Stub.Sample(f.rng)
	if res != nil {
		r.RTT += res.Latency
		r.TTL = res.AnswerTTL
		r.RCode = res.Msg.Header.RCode
		r.CacheHit = res.CacheHit
		r.Stale = res.Stale
		r.FinalServer = res.FinalServer
		if n := len(res.Msg.Answer); n > 0 {
			r.Answer = res.Msg.Answer[n-1].Data
		}
		if err == nil && r.RCode != dnswire.RCodeNoError {
			r.Err = fmt.Errorf("atlas: rcode %s", r.RCode)
		}
	}
	return r
}

// Valid reports whether the response carried a usable answer.
func (r Response) Valid() bool {
	return r.Err == nil && r.RCode == dnswire.RCodeNoError
}
