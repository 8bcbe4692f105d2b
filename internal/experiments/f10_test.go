package experiments

import "testing"

func TestFigure10(t *testing.T) {
	r := Figure10(200, 0, 8)
	mb, ma := r.Metric("median_ms_before"), r.Metric("median_ms_after")
	if ma >= mb {
		t.Fatalf("median after (%.1f) must beat before (%.1f)", ma, mb)
	}
	// The paper's factor: 28.7 → 8 ms, roughly 3.5×. Require ≥2×.
	if mb/ma < 2 {
		t.Errorf("median improvement = %.2fx, want ≥2x (paper ≈3.6x)", mb/ma)
	}
	// Tails shrink too (183→21 at p75, 450→200 at p95).
	if r.Metric("p75_ms_after") >= r.Metric("p75_ms_before") {
		t.Errorf("p75 did not improve: %.1f → %.1f", r.Metric("p75_ms_before"), r.Metric("p75_ms_after"))
	}
	if r.Metric("p95_ms_after") >= r.Metric("p95_ms_before") {
		t.Errorf("p95 did not improve")
	}
	// Figure 10b: every measured region improves.
	if r.Metric("regions_improved") != r.Metric("regions_measured") {
		t.Errorf("regions improved %v of %v", r.Metric("regions_improved"), r.Metric("regions_measured"))
	}
	if r.Metric("regions_measured") < 4 {
		t.Errorf("too few regions measured: %v", r.Metric("regions_measured"))
	}
}

func TestTable10Figure11(t *testing.T) {
	r := Table10Figure11(150, 0, 9)

	m60u := r.Metric("median_ms_TTL60-u")
	m86u := r.Metric("median_ms_TTL86400-u")
	m60s := r.Metric("median_ms_TTL60-s")
	m86s := r.Metric("median_ms_TTL86400-s")
	mAny := r.Metric("median_ms_TTL60-s-anycast")

	// Paper: 49.28 vs 9.68 (unique), 35.59 vs 7.38 (shared), anycast 29.95.
	if m86u >= m60u/2 {
		t.Errorf("unique: TTL86400 median %.1f should be ≪ TTL60 median %.1f", m86u, m60u)
	}
	if m86s >= m60s/2 {
		t.Errorf("shared: TTL86400 median %.1f should be ≪ TTL60 median %.1f", m86s, m60s)
	}
	// Caching beats anycast at the median (§6.2's headline).
	if m86s >= mAny {
		t.Errorf("caching (%.1f ms) must beat anycast (%.1f ms) at the median", m86s, mAny)
	}
	// Anycast helps the tail relative to short-TTL unicast.
	if r.Metric("p95_ms_TTL60-s-anycast") >= r.Metric("p95_ms_TTL60-s") {
		t.Errorf("anycast p95 %.1f should beat unicast p95 %.1f",
			r.Metric("p95_ms_TTL60-s-anycast"), r.Metric("p95_ms_TTL60-s"))
	}

	// Load reduction ≈77 % (paper: 127k→43k unique, 92k→20k shared).
	if f := r.Metric("load_reduction_unique"); f < 0.5 || f > 0.95 {
		t.Errorf("unique load reduction = %.2f, want ≈0.66-0.85", f)
	}
	if f := r.Metric("load_reduction_shared"); f < 0.5 || f > 0.99 {
		t.Errorf("shared load reduction = %.2f, want ≈0.78+", f)
	}
	if r.Metric("auth_queries_TTL60-u") == 0 {
		t.Fatalf("no authoritative queries recorded")
	}
}
