package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestLintExpositionClean(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("query.total").Inc()
	reg.Counter("query.class.type1").Inc()
	reg.Gauge("pool.in_flight").Set(3)
	h := reg.Histogram("query.latency")
	h.Observe(5 * time.Millisecond)
	h.Observe(2 * time.Second)

	var buf bytes.Buffer
	WritePrometheus(&buf, reg.Snapshot())
	if problems := LintExposition(buf.String()); len(problems) > 0 {
		t.Fatalf("clean registry flagged: %v\nexposition:\n%s", problems, buf.String())
	}
}

func TestLintExpositionViolations(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{
			"counter without _total",
			"# TYPE query_hits counter\nquery_hits 3\n",
			"does not end in _total",
		},
		{
			"gauge named like a counter",
			"# TYPE pool_jobs_total gauge\npool_jobs_total 3\n",
			"ends in _total",
		},
		{
			"histogram without _seconds",
			"# TYPE lat histogram\nlat_bucket{le=\"1\"} 1\nlat_bucket{le=\"+Inf\"} 1\nlat_sum 0.5\nlat_count 1\n",
			"does not end in _seconds",
		},
		{
			"histogram without +Inf",
			"# TYPE lat_seconds histogram\nlat_seconds_bucket{le=\"1\"} 1\nlat_seconds_sum 0.5\nlat_seconds_count 1\n",
			"does not terminate",
		},
		{
			"non-cumulative buckets",
			"# TYPE lat_seconds histogram\nlat_seconds_bucket{le=\"1\"} 5\nlat_seconds_bucket{le=\"2\"} 3\nlat_seconds_bucket{le=\"+Inf\"} 5\nlat_seconds_sum 0.5\nlat_seconds_count 5\n",
			"not cumulative",
		},
		{
			"count disagrees with +Inf",
			"# TYPE lat_seconds histogram\nlat_seconds_bucket{le=\"1\"} 1\nlat_seconds_bucket{le=\"+Inf\"} 1\nlat_seconds_sum 0.5\nlat_seconds_count 7\n",
			"disagrees",
		},
		{
			"bad metric name",
			"# TYPE ok_total counter\nok_total 1\n9bad.name 2\n",
			"invalid metric name",
		},
	}
	for _, tc := range cases {
		problems := LintExposition(tc.text)
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: wanted a problem containing %q, got %v", tc.name, tc.want, problems)
		}
	}
}
