package experiments

import (
	"strings"
	"testing"

	"dnsttl/internal/zonegen"
)

func TestCrawlTables(t *testing.T) {
	w, results := CrawlWorld(0.05, 42)

	t5 := Table5(results)
	if f := t5.Metric("responsive_ratio_umbrella"); f < 0.70 || f > 0.86 {
		t.Errorf("Umbrella responsive ratio = %.3f, want ≈0.78", f)
	}
	if t5.Metric("ns_unique_ratio_nl") <= t5.Metric("ns_unique_ratio_alexa") {
		t.Errorf(".nl NS sharing should exceed Alexa's")
	}
	if !strings.Contains(t5.Text, "DNSKEY") {
		t.Errorf("Table 5 missing DNSKEY row")
	}

	f9 := Figure9(results)
	if f := f9.Metric("root_ns_frac_ge_1day"); f < 0.65 {
		t.Errorf("root NS ≥1d fraction = %.3f, want ≈0.8", f)
	}
	if f := f9.Metric("umbrella_ns_frac_le_60s"); f < 0.12 {
		t.Errorf("Umbrella NS ≤60s fraction = %.3f, want ≈0.25", f)
	}
	if f9.Metric("median_NS_alexa") <= f9.Metric("median_A_alexa") {
		t.Errorf("Alexa NS median should exceed A median")
	}

	t8 := Table8(results)
	sum := 0.0
	for _, l := range []zonegen.List{zonegen.Alexa, zonegen.Majestic, zonegen.Umbrella, zonegen.NL} {
		sum += t8.Metric("zero_ttl_" + string(l))
	}
	if sum == 0 {
		t.Errorf("no zero-TTL domains in Table 8")
	}
	if t8.Metric("zero_ttl_root") != 0 {
		t.Errorf("root should have no zero-TTL domains")
	}

	t9 := Table9(results)
	if f := t9.Metric("percent_out_alexa"); f < 85 {
		t.Errorf("Alexa out-only = %.1f%%, want >90%%", f)
	}
	if f := t9.Metric("percent_out_root"); f < 35 || f > 62 {
		t.Errorf("root out-only = %.1f%%, want ≈49%%", f)
	}

	t67 := Tables6And7(w, 7)
	if t67.Metric("classified_total") == 0 {
		t.Fatal("no classified domains")
	}
	if f := t67.Metric("share_placeholder"); f < 0.7 {
		t.Errorf("placeholder share = %.3f", f)
	}
	if t67.Metric("median_h_parking_NS") <= t67.Metric("median_h_e-commerce_NS") {
		t.Errorf("parking NS median should exceed e-commerce's (Table 7)")
	}
}

// TestCrawlWorldConcurrent crawls two worlds at once, as two RunExperiment
// callers in one process do: the crawls share nothing (the transaction-ID
// counter was once a package global), so each must equal its serial twin.
// Run under -race in tier-1.
func TestCrawlWorldConcurrent(t *testing.T) {
	texts := Sweep(2, 2, func(i int) string {
		_, results := CrawlWorld(0.01, int64(i))
		return Table5(results).Text + Table9(results).Text
	})
	for i, got := range texts {
		_, results := CrawlWorld(0.01, int64(i))
		if want := Table5(results).Text + Table9(results).Text; got != want {
			t.Errorf("seed %d: concurrent crawl differs from the serial one:\n%s\nvs\n%s", i, got, want)
		}
	}
}
