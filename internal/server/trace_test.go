package server

// Request tracing at the serving layer: ?trace=1 returns the request's span
// tree in the envelope, an inbound X-Htl-Trace header joins the request into
// a distributed trace (with or without the span payload), and the store's
// recent traces surface on /debug/traces under the propagated id.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"htlvideo/internal/obs"
	"htlvideo/internal/obs/querystats"
)

func traceTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := New(chaosStore(t, 3), WithRandSeed(1))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getTraced(t *testing.T, url, traceHeader string) (int, QueryResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceHeader != "" {
		req.Header.Set(obs.TraceHeader, traceHeader)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

func TestQueryTraceEnvelope(t *testing.T) {
	ts := traceTestServer(t)

	// Without ?trace= the envelope stays clean.
	code, plain := getTraced(t, ts.URL+"/query?q=M1", "")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if plain.TraceID != "" || plain.Trace != nil {
		t.Fatalf("untraced response carries trace fields: id=%q trace=%v", plain.TraceID, plain.Trace)
	}

	// ?trace=1 mints an id and returns the span tree.
	code, traced := getTraced(t, ts.URL+"/query?q=M1&trace=1", "")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if traced.TraceID == "" || traced.Trace == nil {
		t.Fatalf("traced response missing payload: id=%q trace=%v", traced.TraceID, traced.Trace)
	}
	if traced.Trace.ID != traced.TraceID {
		t.Fatalf("envelope id %q != snapshot id %q", traced.TraceID, traced.Trace.ID)
	}
	// The span tree has the eval stage with per-video spans, each video's
	// attempts carrying the store's own evaluation spans stitched beneath.
	if len(traced.Trace.Spans) == 0 {
		t.Fatal("empty span tree")
	}
	var evalSpan *obs.SpanSnapshot
	for i := range traced.Trace.Spans {
		if traced.Trace.Spans[i].Name == "evaluate" {
			evalSpan = &traced.Trace.Spans[i]
		}
	}
	if evalSpan == nil {
		t.Fatalf("no evaluate span among %+v", traced.Trace.Spans)
	}
	if len(evalSpan.Children) != 3 {
		t.Fatalf("evaluate has %d video spans, want 3", len(evalSpan.Children))
	}
	for _, vsp := range evalSpan.Children {
		if vsp.Tags["video"] == "" {
			t.Fatalf("video span untagged: %+v", vsp)
		}
		if len(vsp.Children) == 0 {
			t.Fatalf("video %s has no attempt span", vsp.Tags["video"])
		}
		attempt := vsp.Children[0]
		if attempt.Tags["attempt"] != "1" || attempt.Tags["outcome"] != "ok" {
			t.Fatalf("attempt tags = %+v", attempt.Tags)
		}
		if len(attempt.Children) == 0 {
			t.Fatalf("attempt carries no store spans for video %s", vsp.Tags["video"])
		}
	}

	// Malformed trace values are hard 400s, like every other parameter.
	if code, _ := getTraced(t, ts.URL+"/query?q=M1&trace=banana", ""); code != http.StatusBadRequest {
		t.Fatalf("invalid trace param: status %d, want 400", code)
	}
}

func TestInboundTraceHeaderJoins(t *testing.T) {
	ts := traceTestServer(t)
	const propagated = "0123456789abcdef0123456789abcdef"

	// Header + ?trace=1: the whole span tree runs under the caller's id.
	code, out := getTraced(t, ts.URL+"/query?q=M1&trace=1", propagated)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.TraceID != propagated {
		t.Fatalf("TraceID = %q, want the propagated %q", out.TraceID, propagated)
	}
	if out.Trace == nil || out.Trace.ID != propagated {
		t.Fatalf("span tree did not join the propagated id: %+v", out.Trace)
	}

	// Header alone (no span payload): the id is still echoed, so logs on
	// both sides of the wire correlate without paying for the payload.
	code, out = getTraced(t, ts.URL+"/query?q=M1", propagated)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.TraceID != propagated {
		t.Fatalf("header-only TraceID = %q, want %q", out.TraceID, propagated)
	}
	if out.Trace != nil {
		t.Fatal("header alone must not build the span payload")
	}
}

func TestDebugTracesEndpoint(t *testing.T) {
	ts := traceTestServer(t)
	const propagated = "fedcba9876543210fedcba9876543210"
	if code, _ := getTraced(t, ts.URL+"/query?q=M1&trace=1", propagated); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}

	// The store's trace ring retains the per-video query traces under the
	// propagated id; /debug/traces lists them and serves one by id.
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []obs.TraceSummary
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("no traces retained")
	}
	found := false
	for _, s := range list {
		if s.ID == propagated {
			found = true
		}
	}
	if !found {
		t.Fatalf("no retained trace joined the propagated id; list = %+v", list)
	}

	resp2, err := http.Get(ts.URL + "/debug/traces?id=" + propagated)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("fetch by id: status %d", resp2.StatusCode)
	}
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != propagated {
		t.Fatalf("fetched trace id = %q, want %q", snap.ID, propagated)
	}
}

// A ?trace=1 request without X-Htl-Trace mints its id once, before the
// fan-out: every store trace it leaves in the slow log and the trace ring
// carries the response's trace_id, not an id of its own.
func TestTraceParamJoinsStoreTraces(t *testing.T) {
	srv := New(chaosStore(t, 3), WithRandSeed(1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, out := getTraced(t, ts.URL+"/query?q=M1&trace=1", "")
	if code != http.StatusOK || out.TraceID == "" {
		t.Fatalf("status %d, trace_id %q", code, out.TraceID)
	}
	st := srv.Store()
	slow := st.SlowLog().Snapshot()
	if len(slow) != 3 {
		t.Fatalf("slow log holds %d entries, want one per video", len(slow))
	}
	for _, e := range slow {
		if e.TraceID != out.TraceID || e.Trace == nil || e.Trace.ID != out.TraceID {
			t.Errorf("slow-log entry under %q, want the response's %q", e.TraceID, out.TraceID)
		}
	}
	ring := st.TraceRing().List()
	if len(ring) != 4 {
		t.Fatalf("ring holds %d traces, want three store traces and the request's", len(ring))
	}
	for _, s := range ring {
		if s.ID != out.TraceID {
			t.Errorf("ring trace %q (%v) under %q, want the response's %q", s.Name, s.Tags, s.ID, out.TraceID)
		}
	}
}

// The server samples store traces per request: of the requests that ask for
// no trace, the 1st, the 65th and the 129th leave their store queries' traces
// in the ring, and a ?trace=1 or X-Htl-Trace request always does, without
// moving that count. Sampled or not, every request adds the same to the
// store's query counters, its latency histogram and /debug/queries' totals.
func TestStoreTracesSampledPerRequest(t *testing.T) {
	const videos = 3
	srv := New(chaosStore(t, videos), WithRandSeed(1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	st := srv.Store()
	type counts struct{ total, engine, class, latency, calls int64 }
	read := func() counts {
		stats := st.Stats()
		var q querystats.Snapshot
		resp, err := http.Get(ts.URL + "/debug/queries")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
			t.Fatal(err)
		}
		return counts{stats.Queries.Total, stats.Queries.ByEngine["auto"], stats.Queries.ByClass["type1"],
			stats.Queries.Latency.Count, int64(q.Totals.Calls)}
	}
	// request sends one query and reports how many traces it left in the
	// ring, checking the accounting it added.
	request := func(query, header string) int {
		t.Helper()
		ring, before := st.TraceRing().Len(), read()
		if code, _ := getTraced(t, ts.URL+query, header); code != http.StatusOK {
			t.Fatalf("%s: status %d", query, code)
		}
		after := read()
		want := counts{before.total + videos, before.engine + videos, before.class + videos, before.latency + videos, before.calls + videos}
		if after != want {
			t.Fatalf("%s: accounting went %+v -> %+v, want %+v", query, before, after, want)
		}
		return st.TraceRing().Len() - ring
	}
	var sampled []int
	for i := 1; i <= 130; i++ {
		if n := request("/query?q=M1", ""); n > 0 {
			if n != videos {
				t.Fatalf("untraced request %d left %d traces, want %d", i, n, videos)
			}
			sampled = append(sampled, i)
		}
		switch i {
		case 2, 64:
			if n := request("/query?q=M1&trace=1", ""); n != videos+1 {
				t.Fatalf("?trace=1 after request %d left %d traces, want %d and the request's", i, n, videos)
			}
			if n := request("/query?q=M1", "0123456789abcdef0123456789abcdef"); n != videos {
				t.Fatalf("X-Htl-Trace after request %d left %d traces, want %d", i, n, videos)
			}
		}
	}
	if !reflect.DeepEqual(sampled, []int{1, 65, 129}) {
		t.Fatalf("untraced requests that left store traces: %v, want [1 65 129]", sampled)
	}
}
