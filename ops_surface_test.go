package htlvideo_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"htlvideo"
	"htlvideo/internal/obs"
	"htlvideo/internal/obs/querystats"
	"htlvideo/internal/server"
	"htlvideo/internal/shard"
)

// sharedRoutes is the ops endpoint set every listener serves.
var sharedRoutes = []string{
	"/metrics", "/metrics?format=prometheus", "/healthz", "/readyz",
	"/debug/slowlog", "/debug/traces", "/debug/queries", "/debug/timeseries",
	"/debug/health", "/debug/dash", "/debug/pprof/",
}

// TestOpsSurface: the server's Handler and the shard coordinator's Handler
// serve one ops surface, so each answers every shared route, and every
// Prometheus exposition identifies the binary with build_info.
func TestOpsSurface(t *testing.T) {
	shardSrv := httptest.NewServer(server.New(lintedStore(t)).Handler())
	defer shardSrv.Close()
	coord := shard.New([]string{shardSrv.URL})
	defer coord.Close()

	for _, l := range []struct {
		name string
		h    http.Handler
	}{
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

// opsStore builds n small videos, each with three tagged shots at level 2,
// so M1/M2 queries have answers on every video.
func opsStore(t *testing.T, n int) *htlvideo.Store {
	t.Helper()
	s := htlvideo.NewStore(nil, htlvideo.DefaultWeights())
	for id := 1; id <= n; id++ {
		v := htlvideo.NewVideo(id, fmt.Sprintf("clip %d", id), map[string]int{"shot": 2})
		v.Root.AppendChild(htlvideo.Seg().Attr("M1", htlvideo.Int(1)).Obj(htlvideo.ObjectID(100*id+1), "man").Prop("holds_gun").Build())
		v.Root.AppendChild(htlvideo.Seg().Attr("M1", htlvideo.Int(1)).Attr("M2", htlvideo.Int(1)).Obj(htlvideo.ObjectID(100*id+2), "man").Build())
		v.Root.AppendChild(htlvideo.Seg().Attr("M2", htlvideo.Int(1)).Build())
		if err := s.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestDebugHandler: over a store queried directly, the server's /metrics and
// /debug/slowlog serve valid JSON reflecting the store's counters.
func TestDebugHandler(t *testing.T) {
	s := opsStore(t, 2)
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(s).Handler())
	defer srv.Close()

	var metrics struct {
		Store struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"store"`
		Stats htlvideo.Stats `json:"stats"`
	}
	getJSON(t, srv.URL+"/metrics", &metrics)
	if metrics.Store.Counters["cache.misses"] != 2 {
		t.Fatalf("/metrics cache.misses = %d, want 2", metrics.Store.Counters["cache.misses"])
	}
	if metrics.Stats.Queries.Total != 1 {
		t.Fatalf("/metrics stats total = %d, want 1", metrics.Stats.Queries.Total)
	}

	var slow []htlvideo.SlowEntry
	getJSON(t, srv.URL+"/debug/slowlog", &slow)
	if len(slow) != 1 || slow[0].Query != "M1" {
		t.Fatalf("/debug/slowlog = %+v, want the one query", slow)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestStatsConcurrentWithQueries hammers queries, Stats, the slow log and the
// server's /metrics concurrently; meaningful under -race.
func TestStatsConcurrentWithQueries(t *testing.T) {
	s := opsStore(t, 4)
	srv := httptest.NewServer(server.New(s).Handler())
	defer srv.Close()
	var tc countingSink
	queries := []string{"M1", "M2", "M1 until M2", "eventually M2"}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		q := queries[i%len(queries)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Query(q, htlvideo.WithParallelism(2), htlvideo.WithTrace(&tc)); err != nil {
				t.Errorf("query %q: %v", q, err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Stats()
			_ = s.SlowLog().Snapshot()
			resp, err := srv.Client().Get(srv.URL + "/metrics")
			if err != nil {
				t.Errorf("GET /metrics: %v", err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if got := s.Stats().Queries.Total; got != 12 {
		t.Fatalf("query total = %d, want 12", got)
	}
	if got := tc.n.Load(); got != 12 {
		t.Fatalf("sink received %d traces, want 12", got)
	}
}

// countingSink is a TraceSink that counts the traces it receives.
type countingSink struct{ n atomic.Int64 }

func (c *countingSink) ObserveTrace(*htlvideo.Trace) { c.n.Add(1) }

// TestDebugWorkloadEndpoints: over a store queried directly, the server's
// debug surface serves its query stats (sortable), the health document, the
// timeseries document, and the HTML dashboard.
func TestDebugWorkloadEndpoints(t *testing.T) {
	s := opsStore(t, 3)
	for i := 0; i < 2; i++ {
		if _, err := s.Query("M1"); err != nil {
			t.Fatal(err)
		}
	}
	h := server.New(s).Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries?sort=total", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/queries: %d", rec.Code)
	}
	var qs querystats.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &qs); err != nil {
		t.Fatal(err)
	}
	if qs.SortedBy != "total" || len(qs.Entries) != 1 || qs.Entries[0].Calls != 2 {
		t.Fatalf("queries doc: %+v", qs)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/health", nil))
	var hd obs.HealthDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &hd); err != nil {
		t.Fatal(err)
	}
	if hd.Status != obs.HealthOK || len(hd.Components) == 0 {
		t.Fatalf("health doc: %+v", hd)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeseries", nil))
	var ts struct {
		Samples int `json:"samples"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ts); err != nil {
		t.Fatal(err)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/dash", nil))
	body := rec.Body.String()
	if rec.Code != 200 || !strings.Contains(body, "<html") {
		t.Fatalf("/debug/dash: %d", rec.Code)
	}
	for _, want := range []string{"Health", "Query shapes", "M1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
}
