package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestQuantiles(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 50}, {0.75, 75}, {0.95, 95}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := s.Median(); got != 50 {
		t.Errorf("Median = %v", got)
	}
	if !math.IsNaN(NewSample().Quantile(0.5)) {
		t.Errorf("empty sample quantile should be NaN")
	}
}

func TestMeanMinMax(t *testing.T) {
	s := NewSample(3, 1, 2)
	if s.Mean() != 2 || s.Min() != 1 || s.Max() != 3 {
		t.Errorf("mean/min/max = %v %v %v", s.Mean(), s.Min(), s.Max())
	}
	e := NewSample()
	if !math.IsNaN(e.Mean()) || !math.IsNaN(e.Min()) || !math.IsNaN(e.Max()) {
		t.Errorf("empty sample should be NaN")
	}
}

func TestFractions(t *testing.T) {
	s := NewSample(1, 2, 2, 3)
	if got := s.FractionBelow(2); got != 0.25 {
		t.Errorf("FractionBelow(2) = %v", got)
	}
	if got := s.FractionAtMost(2); got != 0.75 {
		t.Errorf("FractionAtMost(2) = %v", got)
	}
	if got := s.FractionAtMost(0); got != 0 {
		t.Errorf("FractionAtMost(0) = %v", got)
	}
	if got := s.FractionAtMost(99); got != 1 {
		t.Errorf("FractionAtMost(99) = %v", got)
	}
}

func TestCDF(t *testing.T) {
	s := NewSample(1, 1, 2, 4)
	cdf := s.CDF()
	want := []CDFPoint{{1, 0.5}, {2, 0.75}, {4, 1}}
	if len(cdf) != len(want) {
		t.Fatalf("CDF = %v", cdf)
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Errorf("CDF[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	if NewSample().CDF() != nil {
		t.Errorf("empty CDF should be nil")
	}
}

func TestAddDurationAndSummary(t *testing.T) {
	s := NewSample()
	s.AddDuration(30 * time.Millisecond)
	s.AddDuration(50 * time.Millisecond)
	if s.Len() != 2 || s.Quantile(0.5) != 30 || s.Max() != 50 {
		t.Errorf("durations land as milliseconds: n=%d median=%v max=%v", s.Len(), s.Quantile(0.5), s.Max())
	}
}

func TestHistogram(t *testing.T) {
	s := NewSample(0.5, 1, 1.5, 2, 10)
	counts := s.Histogram([]float64{0, 1, 2})
	// [0,1): 0.5 → 1; [1,2): 1, 1.5 → 2; overflow ≥2: 2, 10 → 2
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 2 {
		t.Errorf("histogram = %v", counts)
	}
}

func TestRenderCDF(t *testing.T) {
	a := NewSample(1, 2, 3, 4, 5)
	b := NewSample(10, 20, 30)
	out := RenderCDF("Figure X", "ms", map[string]*Sample{"short": a, "long": b}, 40, true)
	for _, want := range []string{"Figure X", "a = long", "b = short", "100%", "0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderCDF missing %q:\n%s", want, out)
		}
	}
	if out := RenderCDF("empty", "x", map[string]*Sample{"e": NewSample()}, 40, false); !strings.Contains(out, "no data") {
		t.Errorf("empty render = %q", out)
	}
	// Default width and linear axis paths.
	_ = RenderCDF("t", "x", map[string]*Sample{"s": NewSample(1, 2)}, 0, false)
}

func TestTable(t *testing.T) {
	tbl := &Table{Title: "Table 1", Header: []string{"Name", "TTL"}}
	tbl.AddRow("a.nic.cl", "172800")
	tbl.AddRow("x", "1")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("table:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "Name") || !strings.Contains(lines[3], "172800") {
		t.Errorf("table content:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[int]string{0: "0", 999: "999", 1000: "1,000", 1234567: "1,234,567"}
	for n, want := range cases {
		if got := FormatCount(n); got != want {
			t.Errorf("FormatCount(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestQuickQuantileBounds: quantiles are monotone in q and bounded by
// min/max for arbitrary samples.
func TestQuickQuantileBounds(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		s := NewSample()
		for i := 0; i < int(n); i++ {
			s.Add(r.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev || v < s.Min() || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickCDFIsDistribution: the CDF is nondecreasing, ends at 1, and
// FractionAtMost agrees with it at every step.
func TestQuickCDFIsDistribution(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := NewSample(clean...)
		cdf := s.CDF()
		if !sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].X < cdf[j].X }) {
			return false
		}
		prev := 0.0
		for _, p := range cdf {
			if p.F < prev {
				return false
			}
			if math.Abs(s.FractionAtMost(p.X)-p.F) > 1e-12 {
				return false
			}
			prev = p.F
		}
		return math.Abs(cdf[len(cdf)-1].F-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
