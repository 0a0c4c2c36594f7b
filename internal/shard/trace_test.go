package shard

// Cross-process tracing at the coordinator: a ?trace=1 query returns one
// stitched trace whose shard subtrees ran under the coordinator's trace id,
// retries and hedges each appear as their own numbered attempt span, an open
// breaker annotates the skipped shard's span, and the coordinator's
// /debug/slowlog and /debug/traces expose the retained traces with plan-key
// linkage.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"htlvideo/internal/obs"
	"htlvideo/internal/resilience"
	"htlvideo/internal/server"
)

// findSpan returns the first span with the given name at this level.
func findSpan(spans []obs.SpanSnapshot, name string) *obs.SpanSnapshot {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

func TestStitchedTraceCarriesCoordinatorID(t *testing.T) {
	doc := fixtureDoc(6)
	urls := startShardServers(t, doc, 2)
	coord := New(urls, WithRandSeed(1))
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()

	var out server.QueryResponse
	if code := getDoc(t, ct.URL+"/query?q=M1&trace=1", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.TraceID) != 32 {
		t.Fatalf("trace id %q, want a 32-char global id", out.TraceID)
	}
	if out.Trace == nil || out.Trace.ID != out.TraceID {
		t.Fatalf("trace payload = %+v, want snapshot under id %s", out.Trace, out.TraceID)
	}

	// The stitched tree: scatter → per-shard spans → numbered attempts, each
	// successful attempt carrying the shard's own evaluation subtree.
	scatter := findSpan(out.Trace.Spans, "scatter")
	if scatter == nil {
		t.Fatalf("no scatter span: %+v", out.Trace.Spans)
	}
	if findSpan(out.Trace.Spans, "merge") == nil {
		t.Fatal("no merge span")
	}
	if len(scatter.Children) != 2 {
		t.Fatalf("scatter has %d shard spans, want 2", len(scatter.Children))
	}
	for _, sh := range scatter.Children {
		if !strings.HasPrefix(sh.Name, "shard shard-") {
			t.Fatalf("unexpected scatter child %q", sh.Name)
		}
		if sh.Tags["breaker"] != "closed" || sh.Tags["outcome"] != "ok" {
			t.Fatalf("%s tags = %+v", sh.Name, sh.Tags)
		}
		attempt := findSpan(sh.Children, "attempt")
		if attempt == nil {
			t.Fatalf("%s has no attempt span", sh.Name)
		}
		if attempt.Tags["attempt"] != "1" || attempt.Tags["outcome"] != "ok" {
			t.Fatalf("attempt tags = %+v", attempt.Tags)
		}
		// The shard's own span tree (its request-level evaluate span) is
		// stitched under the attempt.
		if findSpan(attempt.Children, "evaluate") == nil {
			t.Fatalf("no shard subtree under the attempt: %+v", attempt.Children)
		}
	}

	// The shard processes joined the coordinator's id: each shard's own trace
	// ring serves a trace under it — the cross-process join the id exists for.
	for _, u := range urls {
		resp, err := http.Get(u + "/debug/traces?id=" + out.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %s retained no trace under the coordinator id (status %d)", u, resp.StatusCode)
		}
	}
}

func TestTraceRetryAttemptsSpans(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(obs.TraceHeader) == "" {
			t.Error("shard request missing trace header")
		}
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, fakeShardResponse(1))
	}))
	defer ts.Close()

	c := New([]string{ts.URL},
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 3}),
		WithHedgeDelay(0), WithRandSeed(1),
	)
	p := testParams()
	p.Trace = true
	res := c.Query(context.Background(), p)
	if res.Shards.OK != 1 || res.Trace == nil {
		t.Fatalf("ok=%d trace=%v", res.Shards.OK, res.Trace)
	}
	sh := findSpan(findSpan(res.Trace.Spans, "scatter").Children, "shard shard-0")
	if sh == nil {
		t.Fatalf("no shard span: %+v", res.Trace.Spans)
	}
	var attempts []obs.SpanSnapshot
	for _, c := range sh.Children {
		if c.Name == "attempt" {
			attempts = append(attempts, c)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("%d attempt spans, want 2 (failure + retry)", len(attempts))
	}
	if attempts[0].Tags["attempt"] != "1" || !strings.Contains(attempts[0].Tags["outcome"], "500") {
		t.Fatalf("first attempt tags = %+v, want the 500 recorded", attempts[0].Tags)
	}
	if attempts[1].Tags["attempt"] != "2" || attempts[1].Tags["outcome"] != "ok" {
		t.Fatalf("second attempt tags = %+v", attempts[1].Tags)
	}
}

// TestAttemptOutcomeCutAtRune: a failed attempt's outcome tag is the
// shard's error cut to 120 bytes, never inside a rune.
func TestAttemptOutcomeCutAtRune(t *testing.T) {
	// "status 400: " is 12 bytes, so the é occupies bytes 119 and 120.
	msg := strings.Repeat("x", 107) + "é and more"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintf(w, `{"error":%q}`, msg)
	}))
	defer ts.Close()

	c := New([]string{ts.URL}, WithHedgeDelay(0), WithRandSeed(1))
	p := testParams()
	p.Trace = true
	res := c.Query(context.Background(), p)
	if res.Shards.OK != 0 || res.Trace == nil {
		t.Fatalf("ok=%d trace=%v", res.Shards.OK, res.Trace)
	}
	sh := findSpan(findSpan(res.Trace.Spans, "scatter").Children, "shard shard-0")
	att := findSpan(sh.Children, "attempt")
	if att == nil {
		t.Fatalf("no attempt span: %+v", sh)
	}
	out := att.Tags["outcome"]
	if !utf8.ValidString(out) || !strings.HasPrefix(out, "status 400: xxx") {
		t.Fatalf("outcome tag %q, want a valid UTF-8 cut of the 400", out)
	}
}

func TestTraceHedgeSpans(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-r.Context().Done() // straggler: loses to its own hedge
			return
		}
		fmt.Fprint(w, fakeShardResponse(1))
	}))
	defer ts.Close()

	c := New([]string{ts.URL},
		WithHedgeDelay(20*time.Millisecond),
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 1}),
		WithRandSeed(1),
	)
	p := testParams()
	p.Trace = true
	res := c.Query(context.Background(), p)
	if res.Shards.OK != 1 || res.Trace == nil {
		t.Fatalf("ok=%d trace=%v", res.Shards.OK, res.Trace)
	}
	sh := findSpan(findSpan(res.Trace.Spans, "scatter").Children, "shard shard-0")
	if sh.Tags["hedged"] != "true" {
		t.Fatalf("shard span not marked hedged: %+v", sh.Tags)
	}
	var hedge *obs.SpanSnapshot
	attempts := 0
	for i, c := range sh.Children {
		if c.Name != "attempt" {
			continue
		}
		attempts++
		if c.Tags["hedge"] == "true" {
			hedge = &sh.Children[i]
		}
	}
	if attempts != 2 {
		t.Fatalf("%d attempt spans, want original + hedge", attempts)
	}
	// The hedge won; the straggling original may still be winding down when
	// the snapshot is cut, so only the winner's outcome is asserted.
	if hedge == nil || hedge.Tags["outcome"] != "ok" {
		t.Fatalf("hedge attempt = %+v, want outcome ok", hedge)
	}
}

func TestTraceBreakerOpenAnnotation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New([]string{ts.URL},
		WithBreakerConfig(resilience.BreakerConfig{OpenFor: time.Minute}),
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 1}),
		WithHedgeDelay(0), WithRandSeed(1),
	)
	// Four failures reach the breaker's minimum volume: it opens.
	for i := 0; i < 4; i++ {
		c.Query(context.Background(), testParams())
	}

	p := testParams()
	p.Trace = true
	res := c.Query(context.Background(), p)
	if res.Trace == nil {
		t.Fatal("no trace")
	}
	sh := findSpan(findSpan(res.Trace.Spans, "scatter").Children, "shard shard-0")
	if sh.Tags["breaker"] != "open" || sh.Tags["outcome"] != "skipped" {
		t.Fatalf("skipped shard tags = %+v, want breaker=open outcome=skipped", sh.Tags)
	}
	if findSpan(sh.Children, "attempt") != nil {
		t.Fatal("skipped shard has an attempt span; the breaker should have prevented the request")
	}
}

func TestCoordinatorSlowLogAndTraceEndpoints(t *testing.T) {
	doc := fixtureDoc(4)
	coord := New(startShardServers(t, doc, 2), WithRandSeed(1))
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()

	var out server.QueryResponse
	if code := getDoc(t, ct.URL+"/query?q=M1+until+M2&trace=1", &out); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}

	// The slow log links each retained query to its trace id and plan key.
	var slow []obs.SlowEntry
	if code := getDoc(t, ct.URL+"/debug/slowlog", &slow); code != http.StatusOK {
		t.Fatalf("slowlog status %d", code)
	}
	if len(slow) == 0 {
		t.Fatal("empty coordinator slow log after a query")
	}
	var entry *obs.SlowEntry
	for i := range slow {
		if slow[i].TraceID == out.TraceID {
			entry = &slow[i]
		}
	}
	if entry == nil {
		t.Fatalf("no slow-log entry under trace %s: %+v", out.TraceID, slow)
	}
	if entry.PlanKey == "" {
		t.Fatalf("slow-log entry lacks a plan key: %+v", entry)
	}
	// Dominant-shard attribution: the entry names whichever member's
	// sub-query took the longest wall time.
	if entry.Shard != "shard-0" && entry.Shard != "shard-1" {
		t.Fatalf("slow-log entry's dominant shard = %q, want a member name", entry.Shard)
	}
	if entry.Query != "M1 until M2" {
		t.Fatalf("slow-log query = %q", entry.Query)
	}

	// The trace ring serves the stitched trace back by the same id.
	var list []obs.TraceSummary
	if code := getDoc(t, ct.URL+"/debug/traces", &list); code != http.StatusOK {
		t.Fatalf("traces status %d", code)
	}
	found := false
	for _, s := range list {
		if s.ID == out.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not listed: %+v", out.TraceID, list)
	}
	var snap obs.TraceSnapshot
	if code := getDoc(t, ct.URL+"/debug/traces?id="+out.TraceID, &snap); code != http.StatusOK {
		t.Fatalf("trace fetch status %d", code)
	}
	if findSpan(snap.Spans, "scatter") == nil {
		t.Fatalf("retained trace lost its spans: %+v", snap)
	}

	// An untraced query still mints and retains a trace: propagation and
	// retention are always on; ?trace=1 only adds the response payload.
	var plain server.QueryResponse
	if code := getDoc(t, ct.URL+"/query?q=M1", &plain); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if plain.TraceID == "" || plain.Trace != nil {
		t.Fatalf("untraced query: id=%q trace=%v, want id only", plain.TraceID, plain.Trace)
	}
	if code := getDoc(t, ct.URL+"/debug/traces?id="+plain.TraceID, &snap); code != http.StatusOK {
		t.Fatalf("untraced query not retained (status %d)", code)
	}
}

// TestFleetSamplesAtTheCoordinator: the coordinator makes the one trace
// decision per query and its shards follow it. Of plain coordinator queries
// the 1st, the 65th and the 129th are traced — on the coordinator and, under
// the same id, on every shard — and no shard keeps a trace under any other
// plain query's id. ?trace=1 and an inbound bare X-Htl-Trace id trace every
// shard and leave that count alone. The coordinator's slow log still names
// an unsampled query's id, plan key and dominant shard.
func TestFleetSamplesAtTheCoordinator(t *testing.T) {
	urls := startShardServers(t, fixtureDoc(4), 2)
	coord := New(urls, WithHedgeDelay(0), WithRandSeed(1))
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()

	// query sends one coordinator query and returns its trace id.
	query := func(path, header string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ct.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(obs.TraceHeader, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out server.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
		}
		if out.TraceID == "" {
			t.Fatalf("%s: no trace id", path)
		}
		return out.TraceID
	}
	// traced lists the ids the ring at base holds traces under.
	traced := func(base string) map[string]bool {
		t.Helper()
		var list []obs.TraceSummary
		if code := getDoc(t, base+"/debug/traces", &list); code != http.StatusOK {
			t.Fatalf("%s/debug/traces: status %d", base, code)
		}
		ids := map[string]bool{}
		for _, s := range list {
			ids[s.ID] = true
		}
		return ids
	}

	plain := map[string]int{} // trace id → the plain query's number
	forced := map[string]bool{}
	const inbound = "0123456789abcdef0123456789abcdef"
	for i := 1; i <= 130; i++ {
		plain[query("/query?q=M1", "")] = i
		if i == 2 || i == 64 {
			forced[query("/query?q=M1&trace=1", "")] = true
			forced[query("/query?q=M1", inbound)] = true
		}
	}
	if len(forced) != 3 || !forced[inbound] {
		t.Fatalf("forced ids = %v, want two minted and the inbound %s", forced, inbound)
	}
	for _, base := range append([]string{ct.URL}, urls...) {
		var sampled []int
		for id := range traced(base) {
			switch n, ok := plain[id]; {
			case ok:
				sampled = append(sampled, n)
			case !forced[id]:
				t.Errorf("%s holds a trace under %q, an id no query ran under", base, id)
			}
		}
		sort.Ints(sampled)
		if !reflect.DeepEqual(sampled, []int{1, 65, 129}) {
			t.Errorf("%s traced plain queries %v, want [1 65 129]", base, sampled)
		}
		for id := range forced {
			if code := getDoc(t, base+"/debug/traces?id="+id, nil); code != http.StatusOK {
				t.Errorf("%s holds no trace under the forced id %s (status %d)", base, id, code)
			}
		}
	}

	var slow []obs.SlowEntry
	if code := getDoc(t, ct.URL+"/debug/slowlog", &slow); code != http.StatusOK {
		t.Fatalf("slowlog status %d", code)
	}
	unsampled := 0
	for _, e := range slow {
		if n, ok := plain[e.TraceID]; e.Trace != nil || !ok || n%64 == 1 {
			continue
		}
		unsampled++
		if e.Query != "M1" || e.PlanKey == "" || (e.Shard != "shard-0" && e.Shard != "shard-1") || e.Duration <= 0 {
			t.Errorf("unsampled slow-log entry = %+v, want query, plan key, dominant shard and duration", e)
		}
	}
	// Besides them, only the seven traced queries can rank among the 32
	// slowest of 134.
	if unsampled < len(slow)-7 {
		t.Fatalf("slow log holds %d unsampled plain queries of %d entries", unsampled, len(slow))
	}
}
