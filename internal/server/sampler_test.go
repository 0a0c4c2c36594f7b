package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"htlvideo/internal/obs/timeseries"
)

// TestSamplerMergesServerAndStoreMetrics: with WithSampleInterval on (as the
// HTTP benchmark workloads run), one /query shows up in /debug/timeseries as
// one sample holding the server's request counter and the store's query
// counter, the merged snapshot of the two registries; Shutdown stops the
// sampler's goroutine.
func TestSamplerMergesServerAndStoreMetrics(t *testing.T) {
	st := chaosStore(t, 2)
	before := runtime.NumGoroutine()
	srv := New(st, WithSampleInterval(time.Millisecond))
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/query?q=M1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/query: status %d: %s", rec.Code, rec.Body)
	}
	waitForSample(t, h, "server.requests.total", "query.total")
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// waitForSample polls h's /debug/timeseries until its latest sample counts
// at least one of each named counter.
func waitForSample(t *testing.T, h http.Handler, counters ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeseries", nil))
		var doc timeseries.Doc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("/debug/timeseries: %v: %s", err, rec.Body)
		}
		missing := ""
		for _, name := range counters {
			if doc.Counters[name].Current < 1 {
				missing = name
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no sample counts %s after 5s (%d samples)", missing, doc.Samples)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitGoroutines waits until no more goroutines run than before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
