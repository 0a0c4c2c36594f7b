package server

// POST /explain and the Prometheus side of /metrics: the endpoint returns an
// annotated plan tree as JSON with the linkage identifiers filled in, rejects
// GETs and bad input, and the metrics endpoint serves both registries —
// server and store — in the scrapeable text format on request while staying
// JSON by default.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"htlvideo"
	"htlvideo/internal/obs"
)

func explainServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(chaosStore(t, 2))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postExplain(t *testing.T, ts *httptest.Server, form url.Values) (*http.Response, htlvideo.ExplainResult) {
	t.Helper()
	resp, err := ts.Client().PostForm(ts.URL+"/explain", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er htlvideo.ExplainResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
	}
	return resp, er
}

// TestExplainEndpoint: a valid POST returns the annotated tree with stats and
// identifiers; the tree's shape follows the query.
func TestExplainEndpoint(t *testing.T) {
	_, ts := explainServer(t)
	resp, er := postExplain(t, ts, url.Values{"q": {"M1 until M2"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/explain = %d", resp.StatusCode)
	}
	if er.Plan == nil || er.Plan.Op != "until" || len(er.Plan.Children) != 2 {
		t.Fatalf("plan = %+v, want an until node with two children", er.Plan)
	}
	if er.Plan.Stats.Visits == 0 {
		t.Fatal("no visits attributed to the root")
	}
	if er.PlanKey == "" || er.TraceID == "" || er.Class != "type1" {
		t.Fatalf("identifiers: %+v", er)
	}
	if er.Videos != 2 {
		t.Fatalf("videos = %d, want 2", er.Videos)
	}
}

// TestExplainEndpointErrors: GET is rejected with Allow, parse failures are
// 400, and an invalid exact flag is 400.
func TestExplainEndpointErrors(t *testing.T) {
	_, ts := explainServer(t)
	resp, err := ts.Client().Get(ts.URL + "/explain?q=M1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /explain = %d, Allow = %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	if resp, _ := postExplain(t, ts, url.Values{"q": {"until until"}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postExplain(t, ts, url.Values{"q": {"M1"}, "exact": {"maybe"}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad exact = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postExplain(t, ts, url.Values{"q": {"M1"}, "engine": {"sql"}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("engine=sql = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postExplain(t, ts, url.Values{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing q = %d, want 400", resp.StatusCode)
	}
}

// TestServerMetricsPrometheus: /metrics negotiates the text format and the
// exposition contains the server registry, the store registry, and the
// process-identification gauges; JSON remains the default.
func TestServerMetricsPrometheus(t *testing.T) {
	_, ts := explainServer(t)
	// Generate some store-side traffic so the query counters exist.
	if resp, _ := postExplain(t, ts, url.Values{"q": {"M1"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up explain = %d", resp.StatusCode)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"server_requests_total", // server registry counter
		"query_total",           // store registry counter
		"build_info{",           // process identification
		"process_uptime_seconds",
		`le="+Inf"`,
		"# TYPE server_request_latency_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Default stays JSON with both registries' sections.
	resp2, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type = %q", ct)
	}
	var doc struct {
		Server obs.RegistrySnapshot `json:"server"`
		Store  obs.RegistrySnapshot `json:"store"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Server.Counters["server.requests.total"]; !ok {
		t.Fatal("JSON missing server counters")
	}
	if _, ok := doc.Store.Counters["query.total"]; !ok {
		t.Fatal("JSON missing store counters")
	}
}
