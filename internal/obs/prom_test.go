package obs

import (
	"strings"
	"testing"

	"dnsttl/internal/simnet"
)

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"resolver.cache.hits": "resolver_cache_hits",
		"qlog.bytes_written":  "qlog_bytes_written",
		"9lives":              "_9lives",
		"a-b c":               "a_b_c",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry(simnet.NewVirtualClock())
	reg.Counter("resolver.resolutions").Add(7)
	reg.CounterFunc("cache.hits", func() uint64 { return 12 })
	reg.GaugeFunc("cache.bytes", func() float64 { return 1234.5 })
	reg.GaugeFunc("cache.entries", func() float64 { return 3 })
	h := reg.Histogram("resolver.latency_ms")
	for _, v := range []float64{0.5, 3, 3, 10, 200} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := reg.WritePrometheusText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE resolver_resolutions counter\nresolver_resolutions 7\n",
		"# TYPE cache_hits counter\ncache_hits 12\n",
		"# TYPE cache_bytes gauge\ncache_bytes 1234.5\n",
		"cache_entries 3\n",
		"# TYPE resolver_latency_ms histogram\n",
		`resolver_latency_ms_bucket{le="+Inf"} 5`,
		"resolver_latency_ms_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// The exposition must pass our own promtool-style lint.
	if problems := LintExposition(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("lint problems in own exposition: %v\n%s", problems, out)
	}

	// Determinism: a second render is byte-identical.
	var sb2 strings.Builder
	if err := reg.WritePrometheusText(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("exposition output is not deterministic")
	}
}

func TestLintExpositionCatchesViolations(t *testing.T) {
	for name, tc := range map[string]struct {
		in   string
		want string // substring of some reported problem
	}{
		"no type line": {
			in:   "orphan_metric 3\n",
			want: "no preceding # TYPE",
		},
		"bad value": {
			in:   "# TYPE m counter\nm notanumber\n",
			want: "does not parse",
		},
		"bad name": {
			in:   "# TYPE m counter\nm-x 3\n",
			want: "invalid metric name",
		},
		"duplicate series": {
			in:   "# TYPE m counter\nm 1\nm 2\n",
			want: "duplicate series",
		},
		"duplicate type": {
			in:   "# TYPE m counter\n# TYPE m gauge\nm 1\n",
			want: "duplicate TYPE",
		},
		"unknown type": {
			in:   "# TYPE m widget\nm 1\n",
			want: "unknown metric type",
		},
		"non-monotonic buckets": {
			in: "# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" +
				`h_bucket{le="2"} 3` + "\n" +
				`h_bucket{le="+Inf"} 5` + "\n" +
				"h_sum 10\nh_count 5\n",
			want: "below preceding bucket",
		},
		"missing inf bucket": {
			in: "# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" +
				"h_sum 10\nh_count 5\n",
			want: `missing le="+Inf"`,
		},
		"inf bucket disagrees with count": {
			in: "# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 4` + "\n" +
				"h_sum 10\nh_count 5\n",
			want: "!= _count",
		},
		"missing sum": {
			in: "# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 5` + "\n" +
				"h_count 5\n",
			want: "missing _sum",
		},
	} {
		t.Run(name, func(t *testing.T) {
			problems := LintExposition(strings.NewReader(tc.in))
			found := false
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("lint missed %q; reported: %v", tc.want, problems)
			}
		})
	}

	// And a clean hand-written exposition passes.
	clean := "# TYPE up gauge\nup 1\n" +
		"# TYPE h histogram\n" +
		`h_bucket{le="0.5"} 2` + "\n" +
		`h_bucket{le="+Inf"} 5` + "\n" +
		"h_sum 12.5\nh_count 5\n"
	if problems := LintExposition(strings.NewReader(clean)); len(problems) != 0 {
		t.Fatalf("clean exposition reported problems: %v", problems)
	}
}
