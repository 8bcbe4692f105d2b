package push

import (
	"fmt"
	"sync"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/zone"
)

// ChangeSet is one serial step of a zone: applying it to a copy of the zone
// at serial From yields the zone at serial To. Del and Add are RFC 1995
// sections: each begins with the SOA at the section's serial (From for Del,
// To for Add), followed by the records the mutation removed or added.
type ChangeSet struct {
	From uint32
	To   uint32
	Del  []dnswire.RR
	Add  []dnswire.RR
}

// DefaultHistory bounds a feed's retained change sets when NewFeed is given
// no explicit limit. A subscriber further behind than the history covers
// gets the full-zone fallback instead of deltas.
const DefaultHistory = 1024

// Feed versions one zone: it watches mutations, allocates monotone serials,
// stamps them into the zone's SOA, and retains a bounded IXFR history.
// Install it on an Authority to fan NOTIFYs out to subscribers.
type Feed struct {
	zone *zone.Zone
	max  int

	mu      sync.Mutex
	serial  uint32
	history []ChangeSet
	// onChange fires after a change set is committed, outside mu, so the
	// Authority's notify fan-out can trigger reentrant IXFR reads.
	onChange func(origin dnswire.Name, serial uint32)
}

// NewFeed versions z, which must carry an SOA (the serial source). The
// feed installs itself as the zone's watcher; maxHistory <= 0 means
// DefaultHistory.
func NewFeed(z *zone.Zone, maxHistory int) (*Feed, error) {
	rr, ok := z.SOA()
	if !ok {
		return nil, fmt.Errorf("push: zone %s has no SOA to version", z.Origin)
	}
	if _, ok := rr.Data.(dnswire.SOA); !ok {
		return nil, fmt.Errorf("push: zone %s SOA has undecoded RDATA", z.Origin)
	}
	if maxHistory <= 0 {
		maxHistory = DefaultHistory
	}
	f := &Feed{zone: z, max: maxHistory, serial: z.Serial()}
	z.SetWatcher(f.record)
	return f, nil
}

// Origin returns the fed zone's apex.
func (f *Feed) Origin() dnswire.Name { return f.zone.Origin }

// Zone returns the zone this feed versions.
func (f *Feed) Zone() *zone.Zone { return f.zone }

// setOnChange installs the post-commit callback (Authority.AddFeed).
func (f *Feed) setOnChange(fn func(origin dnswire.Name, serial uint32)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onChange = fn
}

// record is the zone watcher: it turns one committed mutation into one
// serial step. It runs with the zone unlocked but mutations serialized
// (zone.SetWatcher's contract), so reading the zone's SOA here is safe and
// the history order matches commit order exactly.
func (f *Feed) record(ch zone.Change) {
	f.mu.Lock()
	from := f.serial
	to := from + 1
	f.serial = to

	cs := ChangeSet{From: from, To: to}
	if ch.Name == f.zone.Origin && ch.Type == dnswire.TypeSOA {
		// The mutation replaced the SOA itself; the feed's serial stamp
		// (SetSerial below) overrides whatever serial the writer supplied.
		cs.Del = cloneRRs(ch.Old)
		cs.Add = withSerial(cloneRRs(ch.New), to)
	} else {
		soa, ok := f.soaAt(from)
		if ok {
			cs.Del = append(cs.Del, soa)
		}
		cs.Del = append(cs.Del, ch.Old...)
		if ok {
			cs.Add = append(cs.Add, withSerial([]dnswire.RR{soa}, to)...)
		}
		cs.Add = append(cs.Add, ch.New...)
	}
	f.history = append(f.history, cs)
	if len(f.history) > f.max {
		f.history = f.history[len(f.history)-f.max:]
	}
	cb := f.onChange
	f.mu.Unlock()

	f.zone.SetSerial(to)
	if cb != nil {
		cb(f.zone.Origin, to)
	}
}

// soaAt reads the zone's current SOA rewritten to the given serial. The
// zone still carries the pre-change serial when record runs, but rewriting
// explicitly keeps the history correct even if a writer tampered with the
// serial out of band.
func (f *Feed) soaAt(serial uint32) (dnswire.RR, bool) {
	rr, ok := f.zone.SOA()
	if !ok {
		return dnswire.RR{}, false
	}
	soa, ok := rr.Data.(dnswire.SOA)
	if !ok {
		return dnswire.RR{}, false
	}
	soa.Serial = serial
	rr.Data = soa
	return rr, true
}

// ChangesSince returns the change sets leading from serial to the current
// state, and whether the history covers that span. ok=false means the
// caller needs the full-zone fallback; an up-to-date serial returns
// (nil, true).
func (f *Feed) ChangesSince(serial uint32) ([]ChangeSet, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if serial == f.serial {
		return nil, true
	}
	if serial > f.serial {
		return nil, false
	}
	start := -1
	for i := range f.history {
		if f.history[i].From == serial {
			start = i
			break
		}
	}
	if start < 0 {
		return nil, false
	}
	out := make([]ChangeSet, len(f.history)-start)
	copy(out, f.history[start:])
	return out, true
}

func cloneRRs(rrs []dnswire.RR) []dnswire.RR {
	if rrs == nil {
		return nil
	}
	return append([]dnswire.RR(nil), rrs...)
}

// withSerial rewrites the serial of every SOA in rrs (in place) and returns
// the slice.
func withSerial(rrs []dnswire.RR, serial uint32) []dnswire.RR {
	for i := range rrs {
		if soa, ok := rrs[i].Data.(dnswire.SOA); ok {
			soa.Serial = serial
			rrs[i].Data = soa
		}
	}
	return rrs
}
