package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"htlvideo"
	"htlvideo/internal/casablanca"
	"htlvideo/internal/faultinject"
	"htlvideo/internal/server"
)

// TestDefaultAdmissionAdmitsOverlap: with -max-concurrent and -queue left at
// their default 0 ("GOMAXPROCS"), a request that arrives while another is
// executing is served, not shed. Passing the zeros straight through gave the
// server one slot and no queue, so every overlap was answered 429.
func TestDefaultAdmissionAdmitsOverlap(t *testing.T) {
	st := htlvideo.NewStore(casablanca.Taxonomy(), casablanca.Weights())
	if err := st.Add(casablanca.Video()); err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, server.WithAdmission(admission(0, 0, time.Second)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the first request inside the engine until the second is done.
	faultinject.Arm(faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SiteAtomicEval, Key: faultinject.KeyAny,
		Kind: faultinject.KindStall, Stall: 200 * time.Millisecond,
	}))
	t.Cleanup(faultinject.Disarm)

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body) // a short body fails the status or content check below
		return resp.StatusCode, string(body)
	}
	first := make(chan int, 1)
	go func() {
		code, _ := get("/query?q=M1")
		first <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, metrics := get("/metrics?format=prometheus")
		if strings.Contains(metrics, "server_requests_in_flight 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first request never showed in flight:\n%s", metrics)
		}
		time.Sleep(time.Millisecond)
	}
	if code, body := get("/query?q=M1"); code != http.StatusOK {
		t.Errorf("second, overlapping request = %d, want 200: %s", code, body)
	}
	if code := <-first; code != http.StatusOK {
		t.Errorf("first request = %d, want 200", code)
	}
}
