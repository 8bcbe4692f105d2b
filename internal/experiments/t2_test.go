package experiments

import (
	"strings"
	"testing"
)

func TestTable2(t *testing.T) {
	r := Table2(60, 0, 23)
	for _, label := range []string{".uy-NS", "a.nic.uy-A", "google.co-NS", ".uy-NS-new"} {
		if r.Metric("valid_"+label) == 0 {
			t.Errorf("campaign %s produced no valid responses", label)
		}
		if f := r.Metric("valid_ratio_" + label); f < 0.95 {
			t.Errorf("campaign %s valid ratio = %.3f", label, f)
		}
	}
	for _, want := range []string{"600s", "NS uy.", "A a.nic.uy.", "86400 s", "345600 s"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, r.Text)
		}
	}
}
