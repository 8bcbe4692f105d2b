// Package experiments contains one driver per table and figure in the
// paper's evaluation. Each driver builds its testbed (zones, servers,
// vantage-point fleet), runs the measurement on virtual time, and returns a
// Report with the rendered table/figure plus named metrics that
// EXPERIMENTS.md and the benchmarks compare against the paper's values.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dnsttl/internal/stats"
)

// Report is one experiment's output.
type Report struct {
	// ID names the paper artifact ("Table 1", "Figure 10a", ...).
	ID string
	// Title is a one-line description.
	Title string
	// Text is the rendered table or figure.
	Text string
	// Metrics are named scalar results, keyed like "median_ms_before".
	Metrics map[string]float64
	// Series holds the figure experiments' raw CDF data for external
	// plotting (WriteCSV / ttlrepro -csvdir). Keys name the lines.
	Series map[string][]stats.CDFPoint
}

// AddSeries attaches a sample's CDF under the given line name.
func (r *Report) AddSeries(name string, s *stats.Sample) {
	if s == nil || s.Len() == 0 {
		return
	}
	if r.Series == nil {
		r.Series = make(map[string][]stats.CDFPoint)
	}
	r.Series[name] = s.CDF()
}

// WriteCSV emits the report's series as CSV rows (series,x,F) suitable for
// any plotting tool. It writes nothing when the report has no series.
func (r *Report) WriteCSV(w io.Writer) error {
	if len(r.Series) == 0 {
		return nil
	}
	names := make([]string, 0, len(r.Series))
	for n := range r.Series {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, err := fmt.Fprintln(w, "series,x,cum_fraction"); err != nil {
		return err
	}
	for _, n := range names {
		for _, p := range r.Series[n] {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", n, p.X, p.F); err != nil {
				return err
			}
		}
	}
	return nil
}

// Metric fetches a named metric (NaN-safe zero when missing).
func (r *Report) Metric(name string) float64 {
	return r.Metrics[name]
}

// MarshalJSON emits the report in a machine-readable form for downstream
// plotting: id, title, metrics, and the rendered text.
func (r *Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID      string             `json:"id"`
		Title   string             `json:"title"`
		Metrics map[string]float64 `json:"metrics"`
		Text    string             `json:"text"`
	}{r.ID, r.Title, r.Metrics, r.Text})
}

// goldenJSON renders a harness report as stable, indented JSON — the one
// format the byte-pinned goldens under testdata/ are held in.
func goldenJSON(report any) []byte {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Text)
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("metrics:\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-36s %12.3f\n", k, r.Metrics[k])
		}
	}
	return b.String()
}
