package htlvideo_test

// Metric-conventions lint, wired into `make check`: every registry in the
// repo — the store's, the serving layer's, the shard coordinator's — must
// render a Prometheus exposition where counters end in _total and histograms
// are seconds-based with cumulative le buckets ending in +Inf. A metric added
// anywhere that would scrape wrong fails here, not on a dashboard.

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"htlvideo"
	"htlvideo/internal/obs"
	"htlvideo/internal/server"
	"htlvideo/internal/shard"
)

// lintedStore builds a small store and exercises enough of the query path
// that the registry holds counters, gauges, labeled per-class counters, and
// histograms with observations.
func lintedStore(t *testing.T) *htlvideo.Store {
	t.Helper()
	store := htlvideo.NewStore(nil, htlvideo.DefaultWeights())
	v := htlvideo.NewVideo(1, "clip", map[string]int{"shot": 2})
	v.Root.AppendChild(htlvideo.Seg().Obj(1, "man").Prop("holds_gun").Build())
	v.Root.AppendChild(htlvideo.Seg().Obj(2, "train").Prop("moving").Build())
	if err := store.Add(v); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Query("exists x . present(x) and holds_gun(x)"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Query("exists x . and and"); err == nil {
		t.Fatal("expected a parse error to exercise the error counters")
	}
	return store
}

func lintText(t *testing.T, scope, text string) {
	t.Helper()
	problems := obs.LintExposition(text)
	for _, p := range problems {
		t.Errorf("%s: %s", scope, p)
	}
	if len(problems) > 0 {
		t.Logf("%s exposition:\n%s", scope, text)
	}
}

// latencyLe is every latency histogram's le labels, in exposition order:
// the one bucket layout of internal/obs, which dashboards and alerts key on.
const latencyLe = "2.5e-05 5e-05 0.0001 0.00025 0.0005 0.001 0.0025 0.005 0.01 0.025 0.05 0.1 0.25 0.5 1 2.5 5 10 +Inf"

// checkLatencyBuckets holds every histogram of an exposition to latencyLe
// and requires the named histograms to be there.
func checkLatencyBuckets(t *testing.T, scope, text string, want ...string) {
	t.Helper()
	les := map[string][]string{}
	for _, line := range strings.Split(text, "\n") {
		name, rest, ok := strings.Cut(line, `_bucket{le="`)
		if !ok {
			continue
		}
		le, _, _ := strings.Cut(rest, `"`)
		les[name] = append(les[name], le)
	}
	for _, name := range want {
		if les[name] == nil {
			t.Errorf("%s: no histogram %s", scope, name)
		}
	}
	for name, le := range les {
		if got := strings.Join(le, " "); got != latencyLe {
			t.Errorf("%s: %s buckets le=%s, want %s", scope, name, got, latencyLe)
		}
	}
}

func TestMetricsConventions(t *testing.T) {
	store := lintedStore(t)
	obs.RegisterProcessMetrics(store.Metrics())

	var buf bytes.Buffer
	obs.WritePrometheus(&buf, store.Metrics().Snapshot())
	lintText(t, "store", buf.String())
	checkLatencyBuckets(t, "store", buf.String(), "query_latency_seconds", "video_latency_seconds")

	srv := server.New(lintedStore(t))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	lintText(t, "server", rec.Body.String())
	checkLatencyBuckets(t, "server", rec.Body.String(), "server_request_latency_seconds")

	coord := shard.New(nil)
	defer coord.Close()
	rec = httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	lintText(t, "coordinator", rec.Body.String())
	checkLatencyBuckets(t, "coordinator", rec.Body.String(), "shard_query_latency_seconds")
}
