package population

import (
	"math"
	"math/rand"
	"net/netip"
	"testing"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/resolver"
	"dnsttl/internal/simnet"
	"dnsttl/internal/zone"
)

// fractionChildCentric returns the weight share of child-centric profiles, to
// check the default mix against the paper's ~90 %.
func (m Mix) fractionChildCentric() float64 {
	if len(m) == 0 {
		return 1
	}
	child := 0.0
	for _, p := range m {
		if p.Policy.Centricity == resolver.ChildCentric && !p.Policy.LocalRoot {
			child += p.Weight
		}
	}
	return child / m.totalWeight()
}

func TestDefaultMixWeights(t *testing.T) {
	m := DefaultMix()
	if got := m.totalWeight(); math.Abs(got-1) > 1e-9 {
		t.Errorf("total weight = %v, want 1", got)
	}
	// The paper's headline: ~90 % child-centric.
	frac := m.fractionChildCentric()
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("child-centric fraction = %.3f, want ≈0.9", frac)
	}
	names := map[string]bool{}
	for _, p := range m {
		if names[p.Name] {
			t.Errorf("duplicate profile name %q", p.Name)
		}
		names[p.Name] = true
	}
	for _, want := range []string{"bind-like", "google-like", "opendns-like", "sticky", "localroot"} {
		if !names[want] {
			t.Errorf("mix missing profile %q", want)
		}
	}
}

func TestPickProportional(t *testing.T) {
	m := DefaultMix()
	r := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	n := 50000
	for i := 0; i < n; i++ {
		counts[m.Pick(r).Name]++
	}
	for _, p := range m {
		got := float64(counts[p.Name]) / float64(n)
		if math.Abs(got-p.Weight) > 0.02 {
			t.Errorf("profile %s drawn %.4f, want ≈%.4f", p.Name, got, p.Weight)
		}
	}
}

func TestPickEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var empty Mix
	p := empty.Pick(r)
	if p.Name != "default" {
		t.Errorf("empty mix pick = %+v", p)
	}
	single := AllChildCentric()
	if got := single.Pick(r); got.Name != "bind-like" {
		t.Errorf("single mix pick = %+v", got)
	}
	if single.fractionChildCentric() != 1 {
		t.Errorf("AllChildCentric fraction = %v", single.fractionChildCentric())
	}
	if (Mix{}).fractionChildCentric() != 1 {
		t.Errorf("empty mix child fraction should default to 1")
	}
}

func TestValidate(t *testing.T) {
	ok := resolver.DefaultPolicy()
	cases := []struct {
		name string
		mix  Mix
		want bool // valid?
	}{
		{"default", DefaultMix(), true},
		{"single", AllChildCentric(), true},
		{"empty", Mix{}, false},
		{"nil", nil, false},
		{"zero-weight", Mix{{Name: "a", Weight: 0, Policy: ok}}, false},
		{"negative-weight", Mix{{Name: "a", Weight: 1, Policy: ok}, {Name: "b", Weight: -0.5, Policy: ok}}, false},
		{"nan-weight", Mix{{Name: "a", Weight: math.NaN(), Policy: ok}}, false},
		{"inf-weight", Mix{{Name: "a", Weight: math.Inf(1), Policy: ok}}, false},
	}
	for _, c := range cases {
		err := c.mix.Validate()
		if c.want && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.want && err == nil {
			t.Errorf("%s: Validate accepted an invalid mix", c.name)
		}
	}
}

func TestShares(t *testing.T) {
	ok := resolver.DefaultPolicy()
	m := Mix{{Name: "a", Weight: 3, Policy: ok}, {Name: "b", Weight: 1, Policy: ok}}
	shares, err := m.Shares()
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 2 || math.Abs(shares[0]-0.75) > 1e-12 || math.Abs(shares[1]-0.25) > 1e-12 {
		t.Errorf("shares = %v, want [0.75 0.25]", shares)
	}
	if _, err := (Mix{}).Shares(); err == nil {
		t.Error("Shares on empty mix should error")
	}
	defShares, err := DefaultMix().Shares()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range defShares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("default shares sum to %v", sum)
	}
}

func TestProfilePoliciesDiffer(t *testing.T) {
	m := DefaultMix()
	byName := map[string]Profile{}
	for _, p := range m {
		byName[p.Name] = p
	}
	if byName["google-like"].Policy.TTLCap != 21599 {
		t.Errorf("google-like cap = %d", byName["google-like"].Policy.TTLCap)
	}
	if byName["opendns-like"].Policy.Centricity != resolver.ParentCentric {
		t.Errorf("opendns-like should be parent-centric")
	}
	if !byName["sticky"].Policy.Sticky {
		t.Errorf("sticky profile not sticky")
	}
	if !byName["localroot"].Policy.LocalRoot {
		t.Errorf("localroot profile not RFC 7706")
	}
	if byName["decoupled"].Policy.RefreshGlueOnReferral {
		t.Errorf("decoupled profile should not refresh glue")
	}
}

func TestBuilderBuild(t *testing.T) {
	clock := simnet.NewVirtualClock()
	net := simnet.NewNetwork(1)
	root := zone.New(dnswire.Root)
	b := &Builder{Net: net, Clock: clock,
		RootHints: []netip.Addr{netip.MustParseAddr("192.0.2.1")}, LocalRootZone: root}
	for _, p := range DefaultMix() {
		r := b.Build(p, netip.MustParseAddr("10.0.0.1"), 1)
		if r == nil || r.Cache == nil {
			t.Fatalf("Build(%s) incomplete", p.Name)
		}
		if p.Policy.LocalRoot && r.LocalRootZone != root {
			t.Errorf("localroot profile should carry the mirror")
		}
		if !p.Policy.LocalRoot && r.LocalRootZone != nil {
			t.Errorf("non-localroot profile should not carry the mirror")
		}
	}
}
