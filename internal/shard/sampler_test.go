package shard

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"htlvideo/internal/obs/timeseries"
)

// TestCoordinatorSamplerCountsQueries: with WithSampleInterval on (as the
// shard benchmark workload runs), one /query shows up in the coordinator's
// /debug/timeseries under shard.queries, and Close stops the sampler's
// goroutine.
func TestCoordinatorSamplerCountsQueries(t *testing.T) {
	urls := startShardServers(t, fixtureDoc(4), 2)
	before := runtime.NumGoroutine()
	c := New(urls, WithSampleInterval(time.Millisecond))
	h := c.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/query?q=M1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/query: status %d: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeseries", nil))
		var doc timeseries.Doc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("/debug/timeseries: %v: %s", err, rec.Body)
		}
		if doc.Counters["shard.queries"].Current >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no sample counts shard.queries after 5s (%d samples)", doc.Samples)
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	// The shard requests' keep-alive connections would outlive the check.
	c.client.CloseIdleConnections()
	deadline = time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
