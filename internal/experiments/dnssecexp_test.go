package experiments

import "testing"

func TestValidationCentricity(t *testing.T) {
	r := ValidationCentricity(150, 0, 21)
	plain := r.Metric("frac_parent_plain")
	validating := r.Metric("frac_parent_validating")
	if plain < 0.03 {
		t.Fatalf("plain mix should show a parent-centric share: %.3f", plain)
	}
	if validating > plain/2 {
		t.Errorf("validation should collapse the parent share: %.3f vs %.3f", validating, plain)
	}
	if r.Metric("frac_child_validating") < 0.95 {
		t.Errorf("validating population child share = %.3f, want ≈1", r.Metric("frac_child_validating"))
	}
}
