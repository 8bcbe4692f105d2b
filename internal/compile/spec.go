package compile

import (
	"fmt"
	"math"
	"slices"

	"dnsttl/internal/cache"
	"dnsttl/internal/population"
)

// RegionShare is one geographic slice of the population.
type RegionShare struct {
	// Name labels the region in results ("EU", "NA", ...).
	Name string
	// Share is the region's fraction of the user base.
	Share float64
	// PhaseHours shifts the diurnal curve for this region's local time.
	PhaseHours int
}

// Event is a point where aggregation is unsound and the engine must step
// explicitly: a cache purge (flush) or an upstream outage window.
type Event struct {
	// AtHours is the event time, hours from the start of the run.
	AtHours float64
	// Kind is "purge" (all caches flushed at AtHours) or "outage"
	// (authoritative servers unreachable for DurHours: cache hits still
	// serve, misses fail, nothing refills).
	Kind string
	// DurHours is the outage length; ignored for purges.
	DurHours float64
}

// Spec is a population-scale workload specification: who queries (users
// × mix × regions), what they query (a Zipf name universe at one
// authoritative TTL), through what (resolver cells of UsersPerResolver
// users each, with byte-bounded caches), and when (a diurnal rate curve
// over a horizon, with optional purge/outage events).
type Spec struct {
	// Users is the modeled user population (1e6–1e8).
	Users float64
	// QueriesPerUserDay is each user's mean DNS demand.
	QueriesPerUserDay float64
	// Mix is the resolver behavioral mix; nil means population.DefaultMix.
	// It must pass population.Mix.Validate.
	Mix population.Mix
	// Regions splits users geographically; empty means one world region.
	// Shares must be positive; they are normalized.
	Regions []RegionShare
	// UsersPerResolver sizes resolver cells; 0 means 50 000 (ISP scale).
	UsersPerResolver float64
	// Names is the Zipf name universe size; ZipfS its exponent.
	Names int
	ZipfS float64
	// HeadExact is the number of exactly-modeled head ranks before
	// geometric banding takes over; 0 means 1024.
	HeadExact int
	// TTL is the workload names' authoritative TTL, seconds.
	TTL uint32
	// RecordBytes is the per-entry cache byte charge
	// (cache.EntryCharge); 0 means 150.
	RecordBytes float64
	// MaxBytes bounds each resolver cell's cache; 0 means unbounded.
	// BaseBytes is the per-cell infrastructure overhead charged first.
	MaxBytes, BaseBytes float64
	// Policy is the cells' eviction policy; the zero value is FIFO, as in
	// internal/cache.
	Policy cache.EvictionPolicy
	// PrefetchFrac enables refresh-ahead at this TTL fraction.
	PrefetchFrac float64
	// Hours is the horizon; 0 means 24 (one day).
	Hours int
	// Diurnal is the hourly rate multiplier curve (len 24, mean ≈1);
	// nil means DefaultDiurnal.
	Diurnal []float64
	// Events lists purge/outage points.
	Events []Event
}

// DefaultDiurnal is a two-peak work-day curve (quiet 03:00, peaks late
// morning and evening), mean 1.0.
func DefaultDiurnal() []float64 {
	out := make([]float64, 24)
	sum := 0.0
	for h := 0; h < 24; h++ {
		// Base sinusoid with an evening bump.
		v := 1 + 0.45*math.Sin(2*math.Pi*(float64(h)-9)/24) + 0.25*math.Exp(-sq(float64(h)-20)/8)
		out[h] = v
		sum += v
	}
	for h := range out {
		out[h] *= 24 / sum
	}
	return out
}

func sq(x float64) float64 { return x * x }

// Group is one compiled (profile, region) resolver cohort: Resolvers
// identical cells, each receiving BaseLambda queries/s at diurnal
// multiplier 1, with the profile's policy already lowered to a cache
// lifetime and a per-cell cache spec.
type Group struct {
	Profile, Region string
	// Users and Resolvers size the cohort.
	Users, Resolvers float64
	// BaseLambda is one cell's total client rate at multiplier 1.
	BaseLambda float64
	// Lifetime is the policy-capped cache lifetime of the workload TTL.
	Lifetime float64
	// PhaseHours shifts the diurnal curve for the region.
	PhaseHours int
	// Cache is the per-cell cache configuration.
	Cache CacheSpec
}

// Segment is one constant-rate slice of the horizon.
type Segment struct {
	// Start and Dur are in seconds.
	Start, Dur float64
	// Hour indexes the diurnal curve (before region phase).
	Hour int
	// PurgeAtStart flushes all caches at the segment boundary.
	PurgeAtStart bool
	// Outage marks the upstream dark for the whole segment.
	Outage bool
}

// Program is a compiled spec: cohorts sharing one banded name universe,
// and the segment schedule to advance them through.
type Program struct {
	Spec   Spec
	Groups []Group
	// Bands is ZipfBands' shared partition: read-only.
	Bands    []Band
	Segments []Segment
	Diurnal  []float64
}

// Lines is the total number of compiled renewal lines (groups × bands) —
// the state the engine carries instead of per-client objects.
func (p *Program) Lines() int { return len(p.Groups) * len(p.Bands) }

// Compile lowers a spec into a program. It rejects invalid mixes
// (population.Mix.Validate), non-positive region shares, empty
// populations, and cache settings the solver has no form for (an unknown
// policy would run as LRU, a byte bound inside BaseBytes as a cache that
// never hits) — the aggregation arithmetic would silently skew on any of
// them.
func Compile(spec Spec) (*Program, error) {
	if spec.Users <= 0 {
		return nil, fmt.Errorf("compile: Users must be positive, got %v", spec.Users)
	}
	if spec.QueriesPerUserDay <= 0 {
		return nil, fmt.Errorf("compile: QueriesPerUserDay must be positive, got %v", spec.QueriesPerUserDay)
	}
	if spec.Names < 1 {
		return nil, fmt.Errorf("compile: Names must be ≥1, got %d", spec.Names)
	}
	if !(spec.ZipfS >= 0) {
		return nil, fmt.Errorf("compile: ZipfS must be ≥0, got %v", spec.ZipfS)
	}
	if spec.Policy > cache.EvictSLRU {
		return nil, fmt.Errorf("compile: unknown eviction policy %v", spec.Policy)
	}
	if !(spec.PrefetchFrac >= 0 && spec.PrefetchFrac <= 1) {
		return nil, fmt.Errorf("compile: PrefetchFrac must be in [0, 1], got %v", spec.PrefetchFrac)
	}
	if spec.MaxBytes > 0 && spec.MaxBytes <= spec.BaseBytes {
		return nil, fmt.Errorf("compile: MaxBytes %v leaves no room beside BaseBytes %v", spec.MaxBytes, spec.BaseBytes)
	}
	mix := spec.Mix
	if mix == nil {
		mix = population.DefaultMix()
	}
	shares, err := mix.Shares()
	if err != nil {
		return nil, err
	}
	regions := spec.Regions
	if len(regions) == 0 {
		regions = []RegionShare{{Name: "world", Share: 1}}
	}
	regionTotal := 0.0
	for _, r := range regions {
		if r.Share <= 0 || math.IsNaN(r.Share) || math.IsInf(r.Share, 0) {
			return nil, fmt.Errorf("compile: region %q has non-positive share %v", r.Name, r.Share)
		}
		regionTotal += r.Share
	}
	if spec.UsersPerResolver <= 0 {
		spec.UsersPerResolver = 50000
	}
	if spec.HeadExact <= 0 {
		spec.HeadExact = 1024
	}
	if spec.RecordBytes <= 0 {
		spec.RecordBytes = 150
	}
	if spec.Hours <= 0 {
		spec.Hours = 24
	}
	diurnal := spec.Diurnal
	if diurnal == nil {
		diurnal = DefaultDiurnal()
	}
	if len(diurnal) != 24 {
		return nil, fmt.Errorf("compile: Diurnal must have 24 entries, got %d", len(diurnal))
	}

	p := &Program{Spec: spec, Diurnal: diurnal}
	p.Bands = ZipfBands(spec.Names, spec.ZipfS, spec.HeadExact)
	qps := spec.QueriesPerUserDay / 86400
	for pi, prof := range mix {
		for _, reg := range regions {
			users := spec.Users * shares[pi] * reg.Share / regionTotal
			if users < 1 {
				continue
			}
			resolvers := math.Ceil(users / spec.UsersPerResolver)
			p.Groups = append(p.Groups, Group{
				Profile:    prof.Name,
				Region:     reg.Name,
				Users:      users,
				Resolvers:  resolvers,
				BaseLambda: users * qps / resolvers,
				Lifetime:   float64(prof.Policy.CacheLifetime(spec.TTL)),
				PhaseHours: reg.PhaseHours,
				Cache: CacheSpec{
					MaxBytes:     spec.MaxBytes,
					BaseBytes:    spec.BaseBytes,
					Policy:       spec.Policy,
					PrefetchFrac: spec.PrefetchFrac,
				},
			})
		}
	}
	if len(p.Groups) == 0 {
		return nil, fmt.Errorf("compile: population too small — no group reaches one user")
	}
	p.Segments, err = buildSegments(spec, diurnal)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// buildSegments slices the horizon hourly and splits further at event
// boundaries, marking outage coverage and purge points.
func buildSegments(spec Spec, diurnal []float64) ([]Segment, error) {
	horizon := float64(spec.Hours) * 3600
	// Collect boundary times: hour marks plus event edges.
	cuts := map[float64]bool{0: true, horizon: true}
	for h := 1; h < spec.Hours; h++ {
		cuts[float64(h)*3600] = true
	}
	type window struct{ start, end float64 }
	var outages []window
	purges := map[float64]bool{}
	for _, ev := range spec.Events {
		at := ev.AtHours * 3600
		if at < 0 || at > horizon {
			return nil, fmt.Errorf("compile: event at %.1fh outside horizon", ev.AtHours)
		}
		switch ev.Kind {
		case "purge":
			cuts[at] = true
			purges[at] = true
		case "outage":
			if ev.DurHours < 0 {
				return nil, fmt.Errorf("compile: outage at %.1fh has negative duration %v", ev.AtHours, ev.DurHours)
			}
			end := math.Min(at+ev.DurHours*3600, horizon)
			cuts[at], cuts[end] = true, true
			outages = append(outages, window{at, end})
		default:
			return nil, fmt.Errorf("compile: unknown event kind %q", ev.Kind)
		}
	}
	times := make([]float64, 0, len(cuts))
	for t := range cuts {
		times = append(times, t)
	}
	slices.Sort(times)
	var segs []Segment
	for i := 0; i+1 < len(times); i++ {
		start, end := times[i], times[i+1]
		if end-start < 1e-9 {
			continue
		}
		seg := Segment{
			Start:        start,
			Dur:          end - start,
			Hour:         int(start/3600) % 24,
			PurgeAtStart: purges[start],
		}
		for _, w := range outages {
			if start >= w.start && end <= w.end {
				seg.Outage = true
			}
		}
		segs = append(segs, seg)
	}
	return segs, nil
}
