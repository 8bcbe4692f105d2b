package zonegen

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

func smallWorld(t *testing.T) *World {
	t.Helper()
	clock := simnet.NewVirtualClock()
	net := simnet.NewNetwork(5)
	return Build(Config{Seed: 42, Scale: 0.05}, net, clock)
}

func TestBuildPopulations(t *testing.T) {
	w := smallWorld(t)
	for _, l := range AllLists {
		ds := w.Lists[l]
		wantSize := int(float64(params[l].size) * 0.05)
		if len(ds) != wantSize {
			t.Errorf("%s: %d domains, want %d", l, len(ds), wantSize)
		}
		responsive := 0
		for _, d := range ds {
			if d.Name == "" || d.ParentAddr == (netip.Addr{}) {
				t.Fatalf("%s: incomplete domain %+v", l, d)
			}
			if d.Responsive {
				responsive++
				if d.Zone == nil {
					t.Fatalf("%s: responsive domain %s without zone", l, d.Name)
				}
			}
		}
		frac := float64(responsive) / float64(len(ds))
		if frac < params[l].responsive-0.1 || frac > 1 {
			t.Errorf("%s: responsive fraction %.2f, want ≈%.2f", l, frac, params[l].responsive)
		}
	}
}

// median returns the distribution's weighted median, to check calibration.
func (d ttlDist) median() uint32 {
	total := 0.0
	for _, e := range d {
		total += e.w
	}
	// Weighted median over the entries sorted by TTL. Entries are written
	// in ascending order by convention; trust but accumulate in order.
	acc := 0.0
	for _, e := range d {
		acc += e.w
		if acc >= total/2 {
			return e.ttl
		}
	}
	return d[len(d)-1].ttl
}

func TestTTLDistMedians(t *testing.T) {
	// Table 7 medians (hours → seconds) for class-conditioned .nl dists.
	cases := []struct {
		name string
		d    ttlDist
		want uint32
	}{
		{"NS/ecommerce", classNSTTL[Ecommerce], 14400},
		{"NS/parking", classNSTTL[Parking], 86400},
		{"NS/placeholder", classNSTTL[Placeholder], 14400},
		{"A/ecommerce", classATTL[Ecommerce], 3600},
		{"A/parking", classATTL[Parking], 3600},
		{"A/placeholder", classATTL[Placeholder], 3600},
		{"AAAA/ecommerce", classAAAATTL[Ecommerce], 360},
		{"AAAA/parking", classAAAATTL[Parking], 3600},
		{"AAAA/placeholder", classAAAATTL[Placeholder], 14400},
		{"MX/ecommerce", classMXTTL[Ecommerce], 3600},
		{"DNSKEY/parking", classDNSKEYTTL[Parking], 86400},
		{"DNSKEY/ecommerce", classDNSKEYTTL[Ecommerce], 3600},
	}
	for _, c := range cases {
		if got := c.d.median(); got != c.want {
			t.Errorf("%s median = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTTLDistSample(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := nsTTL[Alexa]
	seen := map[uint32]int{}
	for i := 0; i < 10000; i++ {
		seen[d.sample(r)]++
	}
	// Every menu value with weight ≥2% should appear.
	for _, e := range d {
		if e.w >= 0.02 && seen[e.ttl] == 0 {
			t.Errorf("TTL %d (w=%.3f) never sampled", e.ttl, e.w)
		}
	}
	// Zero-TTL tail exists but is rare (Table 8).
	zf := float64(seen[0]) / 10000
	if zf > 0.02 {
		t.Errorf("zero-TTL fraction %.4f too high", zf)
	}
}

func TestRootListShortTTLTail(t *testing.T) {
	// §5.2: a small set of TLDs has NS TTLs under 30/120 minutes.
	r := rand.New(rand.NewSource(2))
	short30, short120 := 0, 0
	n := 20000
	for i := 0; i < n; i++ {
		ttl := nsTTL[Root].sample(r)
		if ttl < 1800 {
			short30++
		}
		if ttl < 7200 {
			short120++
		}
	}
	f30 := float64(short30) / float64(n)
	f120 := float64(short120) / float64(n)
	// Paper: 34/1535 ≈ 2.2% under 30 min, 122/1535 ≈ 7.9% under 120 min.
	if f30 < 0.005 || f30 > 0.05 {
		t.Errorf("TLDs with NS TTL <30min: %.3f, want ≈0.02", f30)
	}
	if f120 < 0.04 || f120 > 0.12 {
		t.Errorf("TLDs with NS TTL <120min: %.3f, want ≈0.08", f120)
	}
}

func TestBailiwickFractions(t *testing.T) {
	w := smallWorld(t)
	for _, l := range []List{Alexa, NL, Root} {
		counts := map[zone.BailiwickClass]int{}
		n := 0
		for _, d := range w.Lists[l] {
			if d.Responsive && d.NSBehavior == NSAnswer {
				counts[d.Bailiwick]++
				n++
			}
		}
		fOut := float64(counts[zone.BailiwickOutOnly]) / float64(n)
		want := params[l].fOutOnly
		if fOut < want-0.1 || fOut > want+0.1 {
			t.Errorf("%s out-only fraction = %.3f, want ≈%.3f", l, fOut, want)
		}
	}
}

func TestUmbrellaCNAMETail(t *testing.T) {
	w := smallWorld(t)
	cname := 0
	n := 0
	for _, d := range w.Lists[Umbrella] {
		if !d.Responsive {
			continue
		}
		n++
		if d.NSBehavior == NSCNAME {
			cname++
		}
	}
	frac := float64(cname) / float64(n)
	if frac < 0.45 || frac > 0.70 {
		t.Errorf("Umbrella CNAME fraction = %.3f, want ≈0.58", frac)
	}
}

// TestWorldResolvable: a real recursive resolver can resolve generated
// domains end to end through the generated delegations — out-of-bailiwick
// NS host names included.
func TestWorldResolvable(t *testing.T) {
	clock := simnet.NewVirtualClock()
	net := simnet.NewNetwork(5)
	net.LatencyFor = func(src, dst netip.Addr) simnet.LatencyModel {
		return simnet.Constant(time.Millisecond)
	}
	w := Build(Config{Seed: 42, Scale: 0.02}, net, clock)
	r := resolver.New(netip.MustParseAddr("10.0.0.9"), resolver.DefaultPolicy(),
		net, clock, []netip.Addr{w.RootAddr}, 7)

	resolved, tried := 0, 0
	for _, l := range AllLists {
		for _, d := range w.Lists[l] {
			if !d.Responsive || d.NSBehavior != NSAnswer {
				continue
			}
			tried++
			if tried > 40 {
				break
			}
			qt := dnswire.TypeA
			if l == Root {
				qt = dnswire.TypeNS
			}
			res, err := r.Resolve(d.Name, qt)
			if err != nil {
				t.Fatalf("resolve %s: %v", d.Name, err)
			}
			if res.Msg.Header.RCode == dnswire.RCodeNoError && len(res.Msg.Answer) > 0 {
				resolved++
			} else {
				t.Errorf("%s (%s, bailiwick %s): rcode %s answers %d",
					d.Name, l, d.Bailiwick, res.Msg.Header.RCode, len(res.Msg.Answer))
			}
		}
	}
	if resolved == 0 {
		t.Fatal("nothing resolved")
	}
}

func TestHostDirectory(t *testing.T) {
	w := smallWorld(t)
	if len(w.HostAddr) == 0 {
		t.Fatal("empty host directory")
	}
	for h, a := range w.HostAddr {
		if !a.IsValid() {
			t.Fatalf("host %s has invalid address", h)
		}
	}
	if w.servers[w.RootAddr] == nil {
		t.Errorf("root server not registered")
	}
}

func TestContentClassesPresent(t *testing.T) {
	w := smallWorld(t)
	counts := map[ContentClass]int{}
	for _, d := range w.Lists[NL] {
		counts[d.Content]++
	}
	if counts[Placeholder] == 0 || counts[Ecommerce] == 0 || counts[Parking] == 0 {
		t.Errorf("content classes = %v", counts)
	}
	// Placeholder dominates the classified set (Table 6).
	classified := counts[Placeholder] + counts[Ecommerce] + counts[Parking]
	if float64(counts[Placeholder])/float64(classified) < 0.7 {
		t.Errorf("placeholder share = %d/%d", counts[Placeholder], classified)
	}
	for c, want := range map[ContentClass]string{Placeholder: "placeholder", Ecommerce: "e-commerce", Parking: "parking", Unclassified: "unclassified"} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	names := func() []dnswire.Name {
		clock := simnet.NewVirtualClock()
		net := simnet.NewNetwork(5)
		w := Build(Config{Seed: 9, Scale: 0.01}, net, clock)
		var out []dnswire.Name
		for _, l := range AllLists {
			for _, d := range w.Lists[l] {
				out = append(out, d.Name)
				if d.Zone != nil {
					out = append(out, dnswire.Name(d.Bailiwick.String()))
				}
			}
		}
		return out
	}
	a, b := names(), names()
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worlds differ at %d: %s vs %s", i, a[i], b[i])
		}
	}
}
