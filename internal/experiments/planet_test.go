package experiments

import (
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dnsttl/internal/compile"
	"dnsttl/internal/race"
)

// planetWallMetric reports the two metrics that carry wall-clock time and
// so cannot be pinned.
func planetWallMetric(k string) bool {
	return k == "wall_seconds" || k == "throughput_user_seconds_per_wall_second"
}

// planetGoldenJSON renders everything of a planet report that is a function
// of the model alone: every metric but the wall-clock pair, at full
// precision (shortest decimal that round-trips the float64, so equal text
// means equal bits), and the table text up to the wall-clock clause.
func planetGoldenJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	type metric struct {
		Name  string `json:"name"`
		Value string `json:"value"`
	}
	g := struct {
		Metrics []metric `json:"metrics"`
		Text    []string `json:"text"`
	}{}
	for k, v := range r.Metrics {
		if !planetWallMetric(k) {
			g.Metrics = append(g.Metrics, metric{k, strconv.FormatFloat(v, 'g', -1, 64)})
		}
	}
	sort.Slice(g.Metrics, func(i, j int) bool { return g.Metrics[i].Name < g.Metrics[j].Name })
	text, _, ok := strings.Cut(r.Text, "; total wall")
	if !ok {
		t.Fatalf("report text has no wall-clock clause to cut:\n%s", r.Text)
	}
	g.Text = strings.Split(text, "\n")
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestPlanetScaleTier runs the full compiled tier — including the
// 100M-user day — and checks the physics the cells must show. The
// acceptance budget is a 10M-user day under 30 s wall; the whole
// 12-cell tier compiles and runs in ~0.35 s on two cores (2-vCPU Xeon,
// 2.1 GHz) and ~0.7 s on one.
func TestPlanetScaleTier(t *testing.T) {
	start := time.Now()
	r := PlanetScale(0)
	wall := time.Since(start)
	if wall > 60*time.Second {
		t.Fatalf("tier took %v, want well under a minute", wall)
	}
	for _, tier := range []string{"1m", "10m", "100m"} {
		var prevAmp float64
		for i, ttl := range []uint32{30, 300, 3600} {
			hit := r.Metrics["hit_"+tier+"_ttl"+strconv.Itoa(int(ttl))]
			amp := r.Metrics["amp_"+tier+"_ttl"+strconv.Itoa(int(ttl))]
			if hit <= 0 || hit >= 1 {
				t.Errorf("%s ttl%d: hit rate %v outside (0,1)", tier, ttl, hit)
			}
			if amp <= 0 {
				t.Errorf("%s ttl%d: amplification %v not positive", tier, ttl, amp)
			}
			// Longer TTLs shed authoritative load — the paper's core claim.
			if i > 0 && amp >= prevAmp {
				t.Errorf("%s: amplification did not fall from ttl %d (%v) to ttl %d (%v)",
					tier, []uint32{30, 300, 3600}[i-1], prevAmp, ttl, amp)
			}
			prevAmp = amp
		}
		if r.Metrics["failed_"+tier+"_chaos"] <= 0 {
			t.Errorf("%s chaos cell reported no failed queries during the outage", tier)
		}
		if ch, base := r.Metrics["hit_"+tier+"_chaos"], r.Metrics["hit_"+tier+"_ttl300"]; ch >= base {
			t.Errorf("%s: chaos hit rate %v not below the undisturbed cell %v", tier, ch, base)
		}
	}
	if tp := r.Metrics["throughput_user_seconds_per_wall_second"]; tp < 1e9 {
		t.Errorf("throughput %v user-seconds/wall-second — the compiler should clear 1e9 easily", tp)
	}
}

// TestPlanetScaleDeterministic pins the closed-form engine: two runs
// must agree bit-for-bit on every metric except the wall-clock ones.
func TestPlanetScaleDeterministic(t *testing.T) {
	a, b := PlanetScale(0), PlanetScale(0)
	for k, av := range a.Metrics {
		if planetWallMetric(k) {
			continue
		}
		if bv := b.Metrics[k]; av != bv {
			t.Errorf("metric %s: %v != %v across runs", k, av, bv)
		}
	}
}

// TestPlanetScale10MUnder30s is the acceptance criterion stated on its
// own: one 10M-user simulated day, wall-clocked.
func TestPlanetScale10MUnder30s(t *testing.T) {
	start := time.Now()
	res, err := compile.CompileAndRun(planetSpec(1e7, 300))
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if wall > 30*time.Second {
		t.Fatalf("10M-user day took %v, want < 30s", wall)
	}
	if res.VirtualSeconds != 86400 {
		t.Errorf("virtual span %v, want 86400", res.VirtualSeconds)
	}
	if res.Users != 1e7 {
		t.Errorf("users %v, want 1e7", res.Users)
	}
	t.Logf("10M-user day: %v wall, hit=%.4f amp=%.4f lines=%d",
		wall, res.HitRate(), res.Amplification(), res.Lines)
}

// allocatedMB runs fn once and returns the megabytes it allocated
// (process-wide, so the caller must not run in parallel with other tests).
func allocatedMB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// TestRunAllocBudget pins what a simulated day costs in memory. The engine
// recycles steady-state buffers once their last use is past and the cells
// share one band table, so a cell allocates a few MB (≈ 58 MB when every
// solution was kept to the end) and the twelve-cell tier ≈ 70 MB (691 MB).
// Reproduce with: go test ./internal/experiments -run '^$' -bench PlanetScale -benchmem
func TestRunAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("byte budgets are pinned on the plain build, like the other allocation pins")
	}
	PlanetScale(0) // fill the band table: the budgets are for a warm process
	cell := allocatedMB(func() {
		if _, err := compile.CompileAndRun(planetSpec(1e6, 300)); err != nil {
			t.Fatal(err)
		}
	})
	if cell > 10 {
		t.Errorf("1m / TTL 300 cell allocated %.1f MB, budget 10 MB", cell)
	}
	tier := allocatedMB(func() { PlanetScale(0) })
	if tier > 100 {
		t.Errorf("PlanetScale(0) allocated %.1f MB, budget 100 MB", tier)
	}
	t.Logf("cell %.1f MB, tier %.1f MB", cell, tier)
}

// BenchmarkPlanetScale is the one-line reproduction of the tier's time and
// memory (-benchmem): twelve simulated days per iteration.
func BenchmarkPlanetScale(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PlanetScale(0)
	}
}
