package obs

import (
	"strings"
	"testing"
)

// TestWritePrometheusLints pins the exposition writer against the scraper
// invariants: every family the registry can produce — counters, gauges and
// histograms, with and without labels, dotted names, escaped label values,
// empty and heavily observed histograms — lints clean.
func TestWritePrometheusLints(t *testing.T) {
	r := NewRegistry()
	r.Counter("curator.rounds").Add(7)
	r.Counter("curator.reports_by_representation", Label{Key: "representation", Value: "packed"}).Add(3)
	r.Counter("curator.reports_by_representation", Label{Key: "representation", Value: "sparse"}).Add(2)
	r.Gauge("curator.dmu.sig_ratio").Set(0.25)
	r.Gauge("monitor.release_divergence", Label{Key: "metric", Value: "js"}).Set(0.031)
	r.Gauge("weird.label", Label{Key: "v", Value: "quote\"back\\slash\nnewline"}).Set(1)
	r.Histogram("empty.hist") // zero observations
	r.Histogram("relayout.observe_duration_us").ObserveValue(1300)
	h := r.Histogram("pipeline.stage.latency_us",
		Label{Key: "shard", Value: "0"}, Label{Key: "stage", Value: "dmu"})
	for _, v := range []int64{0, 1, 31, 32, 1000, 1 << 20, 1 << 40} {
		h.ObserveValue(v)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := LintExposition(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("exposition fails lint: %v\n--- exposition ---\n%s", err, sb.String())
	}
}

// TestLintCatchesViolations proves the linter actually rejects the
// regressions it exists to catch — a lint that passes everything pins
// nothing.
func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{
			name: "missing +Inf bucket",
			text: "# TYPE h histogram\nh_bucket{le=\"31\"} 4\nh_sum 10\nh_count 4\n",
			want: "+Inf",
		},
		{
			name: "+Inf disagrees with _count",
			text: "# TYPE h histogram\nh_bucket{le=\"31\"} 4\nh_bucket{le=\"+Inf\"} 4\nh_sum 10\nh_count 5\n",
			want: "_count",
		},
		{
			name: "non-monotonic buckets",
			text: "# TYPE h histogram\nh_bucket{le=\"31\"} 4\nh_bucket{le=\"63\"} 3\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 4\n",
			want: "decreased",
		},
		{
			name: "duplicate TYPE",
			text: "# TYPE c counter\nc 1\n# TYPE c counter\n",
			want: "duplicate",
		},
		{
			name: "sample before TYPE",
			text: "c 1\n# TYPE c counter\n",
			want: "before any # TYPE",
		},
		{
			name: "invalid metric name",
			text: "# TYPE ok counter\nok 1\n9bad 2\n",
			want: "metric name",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := LintExposition(strings.NewReader(tc.text))
			if err == nil {
				t.Fatalf("lint accepted invalid exposition:\n%s", tc.text)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("lint error %q does not mention %q", err, tc.want)
			}
		})
	}
}
