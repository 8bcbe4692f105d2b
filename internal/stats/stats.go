// Package stats provides the small statistics toolkit the experiments use
// to turn raw measurements into the paper's tables and figures: empirical
// CDFs, quantiles, histograms and text renderers.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is a mutable collection of float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample creates a sample, optionally pre-loaded.
func NewSample(xs ...float64) *Sample {
	s := &Sample{xs: append([]float64(nil), xs...)}
	return s
}

// Add appends observations.
func (s *Sample) Add(xs ...float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// AddDuration appends a time observation in milliseconds.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Len returns the observation count.
func (s *Sample) Len() int { return len(s.xs) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th empirical quantile (0 ≤ q ≤ 1) using the
// nearest-rank method. It returns NaN for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	rank := int(math.Ceil(q*float64(len(s.xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.xs[rank]
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the arithmetic mean (NaN when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min and Max return the extremes (NaN when empty).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// FractionBelow returns the fraction of observations strictly less than x.
func (s *Sample) FractionBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	i := sort.SearchFloat64s(s.xs, x)
	return float64(i) / float64(len(s.xs))
}

// FractionAtMost returns the fraction of observations ≤ x — the empirical
// CDF evaluated at x.
func (s *Sample) FractionAtMost(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	i := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > x })
	return float64(i) / float64(len(s.xs))
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	F float64 // cumulative fraction ≤ X
}

// CDF returns the full empirical CDF as steps at each distinct value.
func (s *Sample) CDF() []CDFPoint {
	if len(s.xs) == 0 {
		return nil
	}
	s.sort()
	var out []CDFPoint
	n := float64(len(s.xs))
	for i := 0; i < len(s.xs); i++ {
		if i+1 < len(s.xs) && s.xs[i+1] == s.xs[i] {
			continue
		}
		out = append(out, CDFPoint{X: s.xs[i], F: float64(i+1) / n})
	}
	return out
}

// Histogram counts observations into caller-defined bins. Bin i covers
// [edges[i], edges[i+1]); a final overflow bin catches the rest.
func (s *Sample) Histogram(edges []float64) []int {
	counts := make([]int, len(edges))
	for _, x := range s.xs {
		placed := false
		for i := 0; i+1 < len(edges); i++ {
			if x >= edges[i] && x < edges[i+1] {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed && len(edges) > 0 && x >= edges[len(edges)-1] {
			counts[len(edges)-1]++
		}
	}
	return counts
}

// RenderCDF draws an ASCII CDF plot of the named series, sharing an x-axis.
// Width is the plot width in columns; values are plotted on a log x-axis
// when logX is set (zeros are clamped to the smallest positive value).
func RenderCDF(title, xlabel string, series map[string]*Sample, width int, logX bool) string {
	if width <= 0 {
		width = 60
	}
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)

	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if s.Len() == 0 {
			continue
		}
		if v := s.Min(); v < minX {
			minX = v
		}
		if v := s.Max(); v > maxX {
			maxX = v
		}
	}
	if math.IsInf(minX, 1) {
		return title + ": (no data)\n"
	}
	if logX && minX <= 0 {
		minX = 0.01
	}
	if maxX <= minX {
		maxX = minX + 1
	}
	xAt := func(col int) float64 {
		f := float64(col) / float64(width-1)
		if logX {
			return math.Exp(math.Log(minX) + f*(math.Log(maxX)-math.Log(minX)))
		}
		return minX + f*(maxX-minX)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	const rows = 10
	grid := make([][]byte, rows+1)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, name := range names {
		s := series[name]
		if s.Len() == 0 {
			continue
		}
		mark := byte('a' + si)
		for col := 0; col < width; col++ {
			f := s.FractionAtMost(xAt(col))
			row := rows - int(math.Round(f*float64(rows)))
			if row < 0 {
				row = 0
			}
			if row > rows {
				row = rows
			}
			grid[row][col] = mark
		}
	}
	for i, line := range grid {
		frac := 1 - float64(i)/float64(rows)
		fmt.Fprintf(&b, "%4.0f%% |%s\n", frac*100, string(line))
	}
	fmt.Fprintf(&b, "      +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "       %-12.4g%*s%12.4g  (%s%s)\n", minX, width-24, "", maxX, xlabel, map[bool]string{true: ", log x", false: ""}[logX])
	for si, name := range names {
		fmt.Fprintf(&b, "       %c = %s (n=%d)\n", byte('a'+si), name, series[name].Len())
	}
	return b.String()
}

// Table renders rows of cells with padded columns, suitable for terminal
// output of the paper's tables.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				break
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// FormatCount renders n with thousands separators.
func FormatCount(n int) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}
