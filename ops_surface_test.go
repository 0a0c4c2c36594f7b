package htlvideo_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"htlvideo/internal/server"
	"htlvideo/internal/shard"
)

// sharedRoutes is the ops endpoint set every listener serves.
var sharedRoutes = []string{
	"/metrics", "/metrics?format=prometheus", "/healthz", "/readyz",
	"/debug/slowlog", "/debug/traces", "/debug/queries", "/debug/timeseries",
	"/debug/health", "/debug/dash", "/debug/pprof/",
}

// TestOpsSurface: the store's DebugHandler, the server's Handler and the
// shard coordinator's Handler serve one ops surface, so each answers every
// shared route, and every Prometheus exposition identifies the binary with
// build_info.
func TestOpsSurface(t *testing.T) {
	shardSrv := httptest.NewServer(server.New(lintedStore(t)).Handler())
	defer shardSrv.Close()
	coord := shard.New([]string{shardSrv.URL})
	defer coord.Close()

	for _, l := range []struct {
		name string
		h    http.Handler
	}{
		{"store", lintedStore(t).DebugHandler()},
		{"server", server.New(lintedStore(t)).Handler()},
		{"coordinator", coord.Handler()},
	} {
		for _, route := range sharedRoutes {
			rec := httptest.NewRecorder()
			l.h.ServeHTTP(rec, httptest.NewRequest("GET", route, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("%s GET %s: status %d", l.name, route, rec.Code)
			}
			if strings.Contains(route, "prometheus") && !strings.Contains(rec.Body.String(), "build_info{") {
				t.Errorf("%s GET %s: no build_info in the exposition", l.name, route)
			}
		}
	}
}
