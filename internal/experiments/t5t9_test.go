package experiments

import (
	"strings"
	"testing"
)

// TestCrawlTables checks the crawl reports' layout; their numbers are claims.
func TestCrawlTables(t *testing.T) {
	if _, results := CrawlWorld(0.01, 42); !strings.Contains(Table5(results).Text, "DNSKEY") {
		t.Errorf("Table 5 missing DNSKEY row")
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
