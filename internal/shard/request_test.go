package shard

// The coordinator's shard requests are encoded by the server's request codec
// (server.QueryParams.Values); this pins the wire format a shard sees, so a
// fleet of mixed versions keeps parsing each other's requests.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"htlvideo"
	"htlvideo/internal/obs"
)

func TestShardRequestParams(t *testing.T) {
	var mu sync.Mutex
	var got url.Values
	var traceHeader string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := r.ParseForm(); err != nil {
			t.Errorf("shard: %v", err)
		}
		mu.Lock()
		got, traceHeader = r.Form, r.Header.Get(obs.TraceHeader)
		mu.Unlock()
		if r.URL.Path == "/explain" {
			fmt.Fprint(w, `{"plan_key":"M1","class":"type1","engine":"refeval","plan":{"id":0,"op":"atomic","formula":"M1","stats":{"visits":1}}}`)
			return
		}
		fmt.Fprint(w, fakeShardResponse(1))
	}))
	defer ts.Close()
	c := New([]string{ts.URL}, WithHedgeDelay(0), WithRandSeed(1))

	// check holds the recorded request to want, key for key; timeout is
	// the coordinator's per-shard budget, positive and within the request's.
	check := func(t *testing.T, want map[string]string, budget time.Duration) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if traceHeader == "" {
			t.Error("no trace id in the request header")
		}
		if len(got["timeout"]) != 1 {
			t.Fatalf("timeout = %q, want one value", got["timeout"])
		}
		if d, err := time.ParseDuration(got.Get("timeout")); err != nil || d <= 0 || d > budget {
			t.Errorf("timeout = %q, want a positive duration within %v", got.Get("timeout"), budget)
		}
		if len(got) != len(want)+1 {
			t.Errorf("keys = %v, want %v plus timeout", got, want)
		}
		for k, v := range want {
			if len(got[k]) != 1 || got.Get(k) != v {
				t.Errorf("%s = %q, want %q", k, got[k], v)
			}
		}
	}

	base := map[string]string{
		"q": "M1", "level": "2", "engine": "auto", "tau": "0.5", "k": "10", "partial": "true",
	}
	t.Run("query", func(t *testing.T) {
		c.Query(context.Background(), testParams())
		check(t, base, testParams().Timeout)
	})
	t.Run("query_all_set", func(t *testing.T) {
		p := testParams()
		p.Level, p.Engine, p.Tau, p.K = 1, htlvideo.EngineReference, 0.25, 3
		p.Partial, p.Trace, p.TraceID = false, true, "0123456789abcdef0123456789abcdef"
		c.Query(context.Background(), p)
		check(t, map[string]string{
			"q": "M1", "level": "1", "engine": "reference", "tau": "0.25",
			"k": "3", "partial": "false", "trace": "true",
		}, p.Timeout)
		mu.Lock()
		defer mu.Unlock()
		if traceHeader != p.TraceID {
			t.Errorf("trace header = %q, want %q", traceHeader, p.TraceID)
		}
	})
	t.Run("explain", func(t *testing.T) {
		if _, err := c.Explain(context.Background(), testParams()); err != nil {
			t.Fatal(err)
		}
		check(t, base, testParams().Timeout)
	})
	t.Run("explain_exact", func(t *testing.T) {
		p := testParams()
		p.Engine, p.Trace, p.Exact = htlvideo.EngineDirect, true, true
		doc, err := c.Explain(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		// The explain result carries its trace id; trace= is not forwarded.
		want := map[string]string{"exact": "true"}
		for k, v := range base {
			want[k] = v
		}
		want["engine"] = "direct"
		check(t, want, p.Timeout)
		if doc.Engine != "refeval" {
			t.Errorf("engine = %q, want the shard's own %q", doc.Engine, "refeval")
		}
	})
}
