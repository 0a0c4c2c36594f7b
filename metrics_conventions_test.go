package htlvideo_test

// Metric-conventions lint, wired into `make check`: every registry in the
// repo — the store's, the serving layer's, the shard coordinator's — must
// render a Prometheus exposition where counters end in _total and histograms
// are seconds-based with cumulative le buckets ending in +Inf. A metric added
// anywhere that would scrape wrong fails here, not on a dashboard.

import (
	"bytes"
	"net/http/httptest"
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

func TestMetricsConventions(t *testing.T) {
	store := lintedStore(t)
	obs.RegisterProcessMetrics(store.Metrics())

	var buf bytes.Buffer
	obs.WritePrometheus(&buf, store.Metrics().Snapshot())
	lintText(t, "store", buf.String())

	srv := server.New(lintedStore(t))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	lintText(t, "server", rec.Body.String())

	coord := shard.New(nil)
	defer coord.Close()
	rec = httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	lintText(t, "coordinator", rec.Body.String())
}
