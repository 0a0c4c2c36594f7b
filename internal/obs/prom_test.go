package obs

// Prometheus exposition tests: a small parser for the 0.0.4 text format
// round-trips WritePrometheus output back into samples and checks it against
// the registry snapshot — names in the legal charset, TYPE lines preceding
// their samples, cumulative non-decreasing le buckets ending at +Inf, and the
// process/build_info gauges — plus the /metrics content negotiation.

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string // metric name without labels
	labels map[string]string
	value  float64
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLineRe  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	promLabelRe = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// parsePrometheus parses exposition text, failing the test on any line that
// is not a well-formed comment or sample, on a sample without a preceding
// TYPE line, on a HELP line that does not precede its metric's samples, or
// on an invalid TYPE. It returns the samples, the TYPE map, and the HELP map.
func parsePrometheus(t *testing.T, text string) ([]promSample, map[string]string, map[string]string) {
	t.Helper()
	var samples []promSample
	types := map[string]string{}
	helps := map[string]string{}
	seen := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("malformed HELP line %q", line)
			}
			if !promNameRe.MatchString(name) {
				t.Fatalf("HELP line names invalid metric %q", name)
			}
			if seen[name] {
				t.Fatalf("HELP for %q after its samples", name)
			}
			helps[name] = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			name, typ := parts[2], parts[3]
			if !promNameRe.MatchString(name) {
				t.Fatalf("TYPE line names invalid metric %q", name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("invalid type %q in %q", typ, line)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLineRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		s := promSample{name: m[1], labels: map[string]string{}}
		for _, lm := range promLabelRe.FindAllStringSubmatch(m[2], -1) {
			s.labels[lm[1]] = lm[2]
		}
		var err error
		if s.value, err = strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		base := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if bn := strings.TrimSuffix(s.name, suf); bn != s.name && types[bn] == "histogram" {
				base = bn
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no preceding TYPE line", line)
		}
		seen[base] = true
		samples = append(samples, s)
	}
	return samples, types, helps
}

func findSample(samples []promSample, name string) (promSample, bool) {
	for _, s := range samples {
		if s.name == name {
			return s, true
		}
	}
	return promSample{}, false
}

// TestPrometheusRoundTrip renders a populated registry and parses the result
// back: every counter, gauge and histogram must survive with its value, and
// the histogram's le buckets must be cumulative, non-decreasing, and end at a
// +Inf bucket equal to the observation count.
func TestPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("query.total").Add(42)
	reg.Counter(`query.class.type1{shard="weird"}`).Add(7) // pre-labeled name
	reg.Gauge("pool.in_flight").Set(3)
	reg.GaugeFunc("computed.gauge", func() int64 { return 99 })
	h := reg.Histogram("query.latency", nil)
	for _, d := range []time.Duration{10 * time.Microsecond, 300 * time.Microsecond, 80 * time.Millisecond, time.Minute} {
		h.Observe(d)
	}
	reg.Describe("query.total", "Queries issued, including failed ones.")
	reg.Describe("query.latency", "Whole-query latency.\nSecond line.")
	reg.Describe("pool.in_flight", "Videos evaluating right now.")

	var b strings.Builder
	WritePrometheus(&b, reg.Snapshot())
	samples, types, helps := parsePrometheus(t, b.String())

	if s, ok := findSample(samples, "query_total"); !ok || s.value != 42 {
		t.Fatalf("query_total = %+v, %v; want 42", s, ok)
	}
	if types["query_total"] != "counter" {
		t.Fatalf("query_total type = %q, want counter", types["query_total"])
	}
	if s, ok := findSample(samples, "pool_in_flight"); !ok || s.value != 3 {
		t.Fatalf("pool_in_flight = %+v, %v; want 3", s, ok)
	}
	if s, ok := findSample(samples, "computed_gauge"); !ok || s.value != 99 {
		t.Fatalf("computed gauge = %+v, %v; want 99", s, ok)
	}
	// The pre-labeled counter keeps its label block, with the _total suffix
	// inserted before it (the conventions lint requires it of every counter).
	if s, ok := findSample(samples, "query_class_type1_total"); !ok || s.value != 7 || s.labels["shard"] != "weird" {
		t.Fatalf("labeled counter = %+v, %v; want 7 with shard=weird", s, ok)
	}

	// Described metrics carry # HELP lines under their exposition names, with
	// newlines escaped; undescribed ones have none.
	if got := helps["query_total"]; got != "Queries issued, including failed ones." {
		t.Fatalf("query_total HELP = %q", got)
	}
	if got := helps["query_latency_seconds"]; got != `Whole-query latency.\nSecond line.` {
		t.Fatalf("query_latency_seconds HELP = %q", got)
	}
	if got := helps["pool_in_flight"]; got != "Videos evaluating right now." {
		t.Fatalf("pool_in_flight HELP = %q", got)
	}
	if _, ok := helps["computed_gauge"]; ok {
		t.Fatalf("undescribed gauge unexpectedly has HELP")
	}

	if types["query_latency_seconds"] != "histogram" {
		t.Fatalf("histogram type = %q", types["query_latency_seconds"])
	}
	var (
		prev    float64 = -1
		buckets int
		sawInf  bool
		infVal  float64
		lastLe  float64
	)
	for _, s := range samples {
		if s.name != "query_latency_seconds_bucket" {
			continue
		}
		buckets++
		if s.value < prev {
			t.Fatalf("bucket counts not cumulative: %v after %v", s.value, prev)
		}
		prev = s.value
		le := s.labels["le"]
		if le == "+Inf" {
			sawInf, infVal = true, s.value
			continue
		}
		f, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("unparseable le %q: %v", le, err)
		}
		if f <= lastLe {
			t.Fatalf("le bounds not increasing: %v after %v", f, lastLe)
		}
		lastLe = f
	}
	if buckets == 0 || !sawInf {
		t.Fatalf("histogram buckets = %d, +Inf seen = %v", buckets, sawInf)
	}
	if sum, ok := findSample(samples, "query_latency_seconds_count"); !ok || sum.value != 4 || infVal != 4 {
		t.Fatalf("count = %+v (+Inf bucket %v), want 4 observations", sum, infVal)
	}
	// The minute-long observation overflows every finite bucket; sum is in
	// seconds.
	if s, ok := findSample(samples, "query_latency_seconds_sum"); !ok || s.value < 60 || s.value > 61 {
		t.Fatalf("sum = %+v, want ≈60s", s)
	}
}

// TestRegisterProcessMetrics: the identification gauges appear with legal
// names, build_info carries its labels, and uptime is computed at snapshot
// time.
func TestRegisterProcessMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterProcessMetrics(reg)
	var b strings.Builder
	WritePrometheus(&b, reg.Snapshot())
	samples, _, _ := parsePrometheus(t, b.String())

	bi, ok := findSample(samples, "build_info")
	if !ok || bi.value != 1 {
		t.Fatalf("build_info = %+v, %v; want value 1", bi, ok)
	}
	for _, k := range []string{"version", "go_version", "revision"} {
		if bi.labels[k] == "" {
			t.Fatalf("build_info missing label %q: %+v", k, bi.labels)
		}
	}
	if !strings.HasPrefix(bi.labels["go_version"], "go") {
		t.Fatalf("go_version = %q", bi.labels["go_version"])
	}
	if s, ok := findSample(samples, "process_start_time_seconds"); !ok || s.value <= 0 {
		t.Fatalf("process_start_time_seconds = %+v, %v", s, ok)
	}
	if s, ok := findSample(samples, "process_uptime_seconds"); !ok || s.value < 0 {
		t.Fatalf("process_uptime_seconds = %+v, %v", s, ok)
	}
	if s, ok := findSample(samples, "process_pid"); !ok || s.value <= 0 {
		t.Fatalf("process_pid = %+v, %v", s, ok)
	}
}

// TestWantsPrometheus covers the negotiation matrix: explicit ?format= wins
// in both directions, a scraper's Accept selects text, and a bare request
// stays JSON.
func TestWantsPrometheus(t *testing.T) {
	cases := []struct {
		url, accept string
		want        bool
	}{
		{"/metrics", "", false},
		{"/metrics", "application/json", false},
		{"/metrics?format=prometheus", "", true},
		{"/metrics?format=json", "text/plain", false},
		{"/metrics", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1", true},
		{"/metrics", "application/openmetrics-text;version=1.0.0", true},
	}
	for _, c := range cases {
		r := httptest.NewRequest("GET", c.url, nil)
		if c.accept != "" {
			r.Header.Set("Accept", c.accept)
		}
		if got := WantsPrometheus(r); got != c.want {
			t.Errorf("WantsPrometheus(%q, Accept=%q) = %v, want %v", c.url, c.accept, got, c.want)
		}
	}
}

// TestMetricsHandlerNegotiation: the obs HTTP handler serves JSON by default
// and the text format to a scraper, with the right content types.
func TestMetricsHandlerNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("some.counter").Inc()
	h := MetricsHandler(func() []*Registry { return []*Registry{reg} }, func() any { return reg.Snapshot() })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"some.counter"`) {
		t.Fatalf("JSON body missing counter: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if ct := rec.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("prometheus content type = %q", ct)
	}
	samples, _, _ := parsePrometheus(t, rec.Body.String())
	if s, ok := findSample(samples, "some_counter_total"); !ok || s.value != 1 {
		t.Fatalf("some_counter_total = %+v, %v", s, ok)
	}
}
