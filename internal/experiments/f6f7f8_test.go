package experiments

import (
	"strings"
	"testing"
)

func TestBailiwickPair(t *testing.T) {
	r := BailiwickPair(150, 0, 5)

	// §4.2: before the NS expires, (almost) everyone keeps the old server.
	if f := r.Metric("in_frac_new_before_ns_expiry"); f > 0.15 {
		t.Errorf("in-bailiwick new fraction before NS expiry = %.3f, want ≈0", f)
	}
	// After the NS expires (t≥60min) the coupled majority refreshes the
	// still-valid A record and switches — the paper's ≈90 %.
	if f := r.Metric("in_frac_new_after_ns_expiry"); f < 0.7 {
		t.Errorf("in-bailiwick new fraction after NS expiry = %.3f, want ≈0.9", f)
	}
	// §4.3: out-of-bailiwick resolvers trust the cached A through the NS
	// expiry, switching only after the A's own 2 h.
	if f := r.Metric("out_frac_new_after_ns_expiry"); f > 0.35 {
		t.Errorf("out-of-bailiwick new fraction in 60-120min = %.3f, want small", f)
	}
	if f := r.Metric("out_frac_new_after_both_expiry"); f < 0.6 {
		t.Errorf("out-of-bailiwick new fraction after 2h = %.3f, want high", f)
	}
	// The ordering that IS the finding: in-bailiwick switches a full TTL
	// earlier than out-of-bailiwick.
	if r.Metric("in_frac_new_after_ns_expiry") <= r.Metric("out_frac_new_after_ns_expiry") {
		t.Errorf("in-bailiwick must switch earlier than out-of-bailiwick")
	}
	// Sticky VPs exist (Table 4), a small minority.
	if r.Metric("out_sticky_vps") == 0 {
		t.Errorf("no sticky VPs found out-of-bailiwick")
	}
	if f := r.Metric("out_sticky_frac"); f > 0.3 {
		t.Errorf("sticky fraction = %.3f, too many", f)
	}
	// Figure 8: a solid share of the matched sticky VPs switch
	// in-bailiwick — their out-of-bailiwick stickiness was
	// parent-centricity, not true stickiness (§4.4/§4.5). One run matches
	// about ten VPs, so pool five fleets.
	var switchers, matched float64
	for seed := int64(1); seed <= 5; seed++ {
		p := r
		if seed != 5 {
			p = BailiwickPair(150, 0, seed)
		}
		switchers += p.Metric("f8_matched_frac_switchers") * p.Metric("f8_matched_vps")
		matched += p.Metric("f8_matched_vps")
	}
	if m := switchers / matched; m < 0.3 {
		t.Errorf("matched sticky VPs switching in-bailiwick = %.0f of %.0f = %.3f, want ≥0.3", switchers, matched, m)
	}
	for _, want := range []string{"Figure 6", "Figure 7", "Figure 8", "Table 3", "Table 4"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestOfflineChild(t *testing.T) {
	r := OfflineChild(200, 6)
	// Parent-centric profiles answer from the .com referral…
	if f := r.Metric("valid_frac_opendns-like"); f < 0.9 {
		t.Errorf("opendns-like valid fraction = %.3f, want ≈1", f)
	}
	// …while mainstream child-centric resolvers SERVFAIL.
	if f := r.Metric("valid_frac_bind-like"); f > 0.1 {
		t.Errorf("bind-like valid fraction = %.3f, want ≈0", f)
	}
	if f := r.Metric("valid_frac_unbound-like"); f > 0.1 {
		t.Errorf("unbound-like valid fraction = %.3f, want ≈0", f)
	}
}
