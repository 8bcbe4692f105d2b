package experiments

import "testing"

func TestAblationGlueCoupling(t *testing.T) {
	r := AblationGlueCoupling(80, 0, 11)
	on := r.Metric("coupled_frac_new_after_ns_expiry")
	off := r.Metric("decoupled_frac_new_after_ns_expiry")
	if on < 0.9 {
		t.Errorf("coupled resolvers should switch at NS expiry: %.2f", on)
	}
	if off > 0.1 {
		t.Errorf("decoupled resolvers must hold the old A through NS expiry: %.2f", off)
	}
	if late := r.Metric("decoupled_frac_new_after_a_expiry"); late < 0.9 {
		t.Errorf("decoupled resolvers must switch once the A expires: %.2f", late)
	}
}

func TestAblationServeStale(t *testing.T) {
	r := AblationServeStale(80, 0, 12)
	on := r.Metric("valid_frac_serve_stale")
	off := r.Metric("valid_frac_strict")
	if on < 0.8 {
		t.Errorf("serve-stale availability during outage = %.2f, want high", on)
	}
	if off > 0.2 {
		t.Errorf("strict-TTL availability during outage = %.2f, want ≈0", off)
	}
	if r.Metric("stale_answers") == 0 {
		t.Errorf("no stale answers recorded")
	}
}

func TestAblationPrefetch(t *testing.T) {
	r := AblationPrefetch(60, 0, 13)
	if r.Metric("hit_frac_prefetch") <= r.Metric("hit_frac_plain") {
		t.Errorf("prefetch should raise hit rate: %.2f vs %.2f",
			r.Metric("hit_frac_prefetch"), r.Metric("hit_frac_plain"))
	}
	if r.Metric("auth_queries_prefetch") <= r.Metric("auth_queries_plain") {
		t.Errorf("prefetch should cost authoritative queries: %v vs %v",
			r.Metric("auth_queries_prefetch"), r.Metric("auth_queries_plain"))
	}
}

func TestAblationCapStyle(t *testing.T) {
	r := AblationCapStyle(0, 14)
	serve := r.Metric("at_cap_frac_serve")
	store := r.Metric("at_cap_frac_store")
	if serve < 0.95 {
		t.Errorf("serve-time cap should pin every answer at 21599: %.2f", serve)
	}
	if store >= serve {
		t.Errorf("storage cap should show decayed values: store %.2f vs serve %.2f", store, serve)
	}
}
