package shard

// Coordinator unit tests over in-process shards: byte-identity of the
// merged ranking against a single unsharded store, shard-level retries,
// hedged requests to stragglers, breaker trip/skip/recovery on a fake
// clock, quorum semantics, and graceful join/leave.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"htlvideo"
	"htlvideo/internal/resilience"
	"htlvideo/internal/server"
)

// fixtureDoc builds a store document of n videos with M1/M2-tagged shots at
// level 2, varied enough that rankings have real structure and ties.
func fixtureDoc(n int) htlvideo.StoreDoc {
	doc := htlvideo.StoreDoc{}
	for id := 1; id <= n; id++ {
		segs := []htlvideo.SegmentDoc{
			{Attrs: map[string]any{"M1": float64(1)}},
			{Attrs: map[string]any{"M1": float64(1), "M2": float64(1)}},
			{Attrs: map[string]any{"M2": float64(1)}},
		}
		// Vary length per video so top-k runs differ across videos.
		for j := 0; j < id%3; j++ {
			segs = append(segs, htlvideo.SegmentDoc{Attrs: map[string]any{"M1": float64(1)}})
		}
		doc.Videos = append(doc.Videos, htlvideo.VideoDoc{
			ID: id, Name: fmt.Sprintf("clip %d", id),
			Levels:   map[string]int{"shot": 2},
			Segments: segs,
		})
	}
	return doc
}

// startShardServers splits doc into n shard stores and serves each with a
// full internal/server instance; returns the base URLs in shard order.
func startShardServers(t *testing.T, doc htlvideo.StoreDoc, n int) []string {
	t.Helper()
	shards, err := htlvideo.SplitDoc(doc, n)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, n)
	for i, sd := range shards {
		st, err := sd.Build()
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(st, server.WithRandSeed(int64(i+1))).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// getDoc GETs url and decodes the body into out, returning the status.
func getDoc(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestMergedRankingMatchesSingleStore(t *testing.T) {
	doc := fixtureDoc(12)
	st, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(server.New(st, server.WithRandSeed(1)).Handler())
	defer single.Close()

	coord := New(startShardServers(t, doc, 3), WithRandSeed(1))
	ct := httptest.NewServer(coord.Handler())
	defer ct.Close()

	// rawTop captures the "top" array bytes so the comparison is
	// byte-identical, not merely structurally equal.
	type rawTop struct {
		Class     string          `json:"class"`
		Videos    int             `json:"videos"`
		Evaluated int             `json:"evaluated"`
		Top       json.RawMessage `json:"top"`
	}
	for _, q := range []string{
		"q=M1&k=1", "q=M1&k=4", "q=M1&k=100",
		"q=M1+until+M2&k=7", "q=eventually+M2&k=5",
	} {
		var want, got rawTop
		if code := getDoc(t, single.URL+"/query?"+q, &want); code != http.StatusOK {
			t.Fatalf("single %s: status %d", q, code)
		}
		if code := getDoc(t, ct.URL+"/query?"+q, &got); code != http.StatusOK {
			t.Fatalf("coordinator %s: status %d", q, code)
		}
		if string(got.Top) != string(want.Top) {
			t.Errorf("%s: merged ranking diverges from single store\n got: %s\nwant: %s", q, got.Top, want.Top)
		}
		if got.Class != want.Class || got.Videos != want.Videos || got.Evaluated != want.Evaluated {
			t.Errorf("%s: aggregates diverge: got %+v want %+v", q, got, want)
		}
	}
}

// fakeShardResponse is a minimal valid shard /query body.
func fakeShardResponse(video int) string {
	return fmt.Sprintf(`{"class":"type1","videos":1,"evaluated":1,"top":[{"video":%d,"beg":1,"end":1,"sim":1,"frac":0.5}],"elapsed_ms":0.1}`, video)
}

func testParams() server.QueryParams {
	return server.QueryParams{
		Query: "M1", Level: 2, Tau: 0.5, K: 10,
		Timeout: 2 * time.Second, Partial: true,
	}
}

func TestRetriesTransientShardFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, fakeShardResponse(1))
	}))
	defer ts.Close()

	c := New([]string{ts.URL},
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 3}),
		WithHedgeDelay(0),
		WithRandSeed(1),
	)
	res := c.Query(context.Background(), testParams())
	if res.Shards.OK != 1 || len(res.ShardErrors) != 0 {
		t.Fatalf("ok=%d errors=%v, want one healthy shard", res.Shards.OK, res.ShardErrors)
	}
	if got := c.Metrics().Counter("shard.retries").Value(); got != 1 {
		t.Errorf("shard.retries = %d, want 1", got)
	}
	if calls.Load() != 2 {
		t.Errorf("shard saw %d calls, want 2", calls.Load())
	}
}

func TestPermanentShardErrorNotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := New([]string{ts.URL},
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 3}),
		WithHedgeDelay(0), WithRandSeed(1),
	)
	res := c.Query(context.Background(), testParams())
	if res.Shards.OK != 0 || len(res.ShardErrors) != 1 {
		t.Fatalf("ok=%d errors=%v, want the one shard failed", res.Shards.OK, res.ShardErrors)
	}
	if calls.Load() != 1 {
		t.Errorf("shard saw %d calls, want 1 (4xx is deterministic)", calls.Load())
	}
}

// A shard's ranked run is merged as segment ids; one it cannot be (here an id
// past the int32 range, which a conversion would wrap to 1) fails that shard.
func TestShardRunOutsideIDRangeIsShardError(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, fakeShardResponse(1))
	}))
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"class":"type1","videos":1,"evaluated":1,"top":[{"video":2,"beg":4294967297,"end":4294967297,"sim":2,"frac":1}],"elapsed_ms":0.1}`)
	}))
	defer bad.Close()

	c := New([]string{good.URL, bad.URL},
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 1}),
		WithHedgeDelay(0), WithRandSeed(1),
	)
	res := c.Query(context.Background(), testParams())
	if res.Shards.OK != 1 || len(res.ShardErrors) != 1 || !strings.Contains(res.ShardErrors[0].Error(), "not a run of segment ids") {
		t.Fatalf("ok=%d errors=%v, want the out-of-range shard itemized", res.Shards.OK, res.ShardErrors)
	}
	if len(res.Top) != 1 || res.Top[0].Video != 1 {
		t.Fatalf("top = %+v, want only the healthy shard's run", res.Top)
	}
}

func TestHedgesStragglerShards(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// The straggler: sit on the request until the coordinator gives
			// up on it (the hedge's win cancels this context).
			<-r.Context().Done()
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
	start := time.Now()
	res := c.Query(context.Background(), testParams())
	if res.Shards.OK != 1 {
		t.Fatalf("ok=%d errors=%v, want hedged success", res.Shards.OK, res.ShardErrors)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hedged query took %v; the straggler was not cut off", elapsed)
	}
	if got := c.Metrics().Counter("shard.hedges").Value(); got != 1 {
		t.Errorf("shard.hedges = %d, want 1", got)
	}
}

func TestBreakerTripsSkipsAndRecovers(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, fakeShardResponse(1))
	}))
	defer ts.Close()

	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	c := New([]string{ts.URL},
		WithBreakerConfig(resilience.BreakerConfig{OpenFor: time.Minute}),
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 1}),
		WithHedgeDelay(0), WithClock(clock), WithRandSeed(1),
	)

	// Four failing queries reach the breaker's minimum volume at 100%
	// failure: the breaker opens.
	for i := 0; i < 4; i++ {
		if res := c.Query(context.Background(), testParams()); res.Shards.OK != 0 {
			t.Fatalf("query %d: expected failure, got ok=%d", i, res.Shards.OK)
		}
	}
	if got := c.Metrics().Counter("shard.breaker.opened").Value(); got != 1 {
		t.Fatalf("shard.breaker.opened = %d, want 1", got)
	}

	// While open, the shard is skipped without an attempt.
	res := c.Query(context.Background(), testParams())
	if len(res.ShardErrors) != 1 || !errors.Is(res.ShardErrors[0], ErrBreakerOpen) {
		t.Fatalf("open breaker: ShardErrors = %v, want ErrBreakerOpen", res.ShardErrors)
	}
	if got := c.Metrics().Counter("shard.skipped").Value(); got != 1 {
		t.Errorf("shard.skipped = %d, want 1", got)
	}
	if info := c.Shards(); info[0].Breaker != "open" {
		t.Errorf("breaker state = %s, want open", info[0].Breaker)
	}

	// Past OpenFor with a healthy shard, the half-open probe closes it.
	fail.Store(false)
	advance(2 * time.Minute)
	res = c.Query(context.Background(), testParams())
	if res.Shards.OK != 1 || len(res.ShardErrors) != 0 {
		t.Fatalf("recovery: ok=%d errors=%v", res.Shards.OK, res.ShardErrors)
	}
	if got := c.Metrics().Counter("shard.breaker.closed").Value(); got != 1 {
		t.Errorf("shard.breaker.closed = %d, want 1", got)
	}
}

func TestQuorumSemantics(t *testing.T) {
	doc := fixtureDoc(8)
	urls := startShardServers(t, doc, 2)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on
	urls = append(urls, dead.URL)

	retry := WithRetryConfig(resilience.RetryConfig{MaxAttempts: 1})

	// MinShards 3 of 3: losing one shard fails the query as a whole.
	strict := New(urls, WithMinShards(3), retry, WithHedgeDelay(0), WithRandSeed(1))
	res := strict.Query(context.Background(), testParams())
	if res.QuorumMet(3) {
		t.Fatal("quorum reported met with a dead shard")
	}
	if got := strict.Metrics().Counter("shard.quorum_failures").Value(); got != 1 {
		t.Errorf("shard.quorum_failures = %d, want 1", got)
	}
	st := httptest.NewServer(strict.Handler())
	defer st.Close()
	var doc503 server.QueryResponse
	if code := getDoc(t, st.URL+"/query?q=M1", &doc503); code != http.StatusServiceUnavailable {
		t.Fatalf("below-quorum status = %d, want 503", code)
	}
	if len(doc503.Shards.Errors) != 1 || doc503.Shards.Errors[0].Shard != "shard-2" {
		t.Fatalf("shard errors = %+v, want shard-2 named", doc503.Shards.Errors)
	}

	// MinShards 1: the survivors' merged top-k is served as a partial.
	lax := New(urls, WithMinShards(1), retry, WithHedgeDelay(0), WithRandSeed(1))
	res = lax.Query(context.Background(), testParams())
	if !res.QuorumMet(1) || res.Shards.OK != 2 {
		t.Fatalf("ok=%d errors=%v, want 2 survivors", res.Shards.OK, res.ShardErrors)
	}
	if len(res.Top) == 0 {
		t.Fatal("partial result carries no ranking")
	}
	if len(res.ShardErrors) != 1 || !strings.Contains(res.ShardErrors[0].Error(), "shard-2") {
		t.Fatalf("ShardErrors = %v, want shard-2 named", res.ShardErrors)
	}
}

func TestShardJoinLeave(t *testing.T) {
	doc := fixtureDoc(6)
	urls := startShardServers(t, doc, 2)

	// Start with only shard-0 attached; shard-1 joins over HTTP.
	c := NewNamed(map[string]string{"shard-0": urls[0]}, WithRandSeed(1),
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 1}), WithHedgeDelay(0))
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	var partial server.QueryResponse
	if code := getDoc(t, ts.URL+"/query?q=M1", &partial); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}

	join := func(body string) (code int, out struct {
		Changed bool        `json:"changed"`
		Shards  []ShardInfo `json:"shards"`
	}) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/-/shards", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	code, out := join(fmt.Sprintf(`{"op":"add","name":"shard-1","url":"%s"}`, urls[1]))
	if code != http.StatusOK || !out.Changed || len(out.Shards) != 2 {
		t.Fatalf("join: code=%d out=%+v", code, out)
	}

	var full server.QueryResponse
	if code := getDoc(t, ts.URL+"/query?q=M1", &full); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if full.Videos <= partial.Videos {
		t.Fatalf("after join videos=%d, want more than pre-join %d", full.Videos, partial.Videos)
	}
	if full.Shards.Total != 2 || full.Shards.OK != 2 {
		t.Fatalf("after join shards=%+v", full.Shards)
	}

	code, out = join(`{"op":"remove","name":"shard-1"}`)
	if code != http.StatusOK || !out.Changed || len(out.Shards) != 1 {
		t.Fatalf("leave: code=%d out=%+v", code, out)
	}
	var again server.QueryResponse
	getDoc(t, ts.URL+"/query?q=M1", &again)
	if again.Videos != partial.Videos {
		t.Fatalf("after leave videos=%d, want %d", again.Videos, partial.Videos)
	}

	// Bad requests are 400s.
	for _, body := range []string{`{`, `{"op":"nope","name":"x"}`, `{"op":"add","name":""}`, `{"op":"add","name":"x"}`} {
		if code, _ := join(body); code != http.StatusBadRequest {
			t.Errorf("body %q: code %d, want 400", body, code)
		}
	}
}

// TestJoinNormalisesShardURL: a shard joined over POST /-/shards as
// "http://host:port/" is served as "http://host:port", so the coordinator's
// POST /explain reaches its "/explain" (not "//explain", which the shard's
// mux redirects and the client retries as a GET) and the shard takes part;
// a URL that is not an absolute http(s) URL is refused with 400.
func TestJoinNormalisesShardURL(t *testing.T) {
	urls := startShardServers(t, fixtureDoc(6), 2)
	c := NewNamed(map[string]string{"shard-0": urls[0]}, WithRandSeed(1),
		WithRetryConfig(resilience.RetryConfig{MaxAttempts: 1}), WithHedgeDelay(0))
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	join := func(name, u string) int {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"op": "add", "name": name, "url": u})
		resp, err := http.Post(ts.URL+"/-/shards", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := join("shard-1", urls[1]+"/"); code != http.StatusOK {
		t.Fatalf("join with a trailing slash: status %d", code)
	}
	if got := c.Shards()[1].URL; got != urls[1] {
		t.Errorf("joined URL = %q, want %q", got, urls[1])
	}
	resp, err := http.Post(ts.URL+"/explain", "application/x-www-form-urlencoded", strings.NewReader("q=M1+until+M2"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ExplainDoc
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || e.Shards == nil || e.Shards.OK != 2 {
		t.Errorf("explain: status %d, shards %+v; want both shards", resp.StatusCode, e.Shards)
	}

	for _, bad := range []string{"", "ftp://" + strings.TrimPrefix(urls[1], "http://"), strings.TrimPrefix(urls[1], "http://"), "/query", urls[1] + "/?x=1"} {
		if code := join("shard-2", bad); code != http.StatusBadRequest {
			t.Errorf("join %q: status %d, want 400", bad, code)
		}
	}
	if n := len(c.Shards()); n != 2 {
		t.Errorf("%d shards after refused joins, want 2", n)
	}
}

func TestReadyzAndDrain(t *testing.T) {
	empty := NewNamed(nil)
	ts := httptest.NewServer(empty.Handler())
	defer ts.Close()
	if code := getDoc(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("empty ring readyz = %d, want 503", code)
	}
	if code := getDoc(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}

	c := NewNamed(map[string]string{"shard-0": "http://127.0.0.1:1"})
	ts2 := httptest.NewServer(c.Handler())
	defer ts2.Close()
	if code := getDoc(t, ts2.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", code)
	}
	c.Drain()
	if code := getDoc(t, ts2.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", code)
	}
}

func TestCoordinatorRejectsBadTimeout(t *testing.T) {
	// The shared parser gives the coordinator the same hard-400 semantics on
	// malformed ?timeout=, on the library-only ?engine=sql and on a ?tau=
	// outside [0, 1], NaN included, as a single server.
	c := NewNamed(nil)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	for _, target := range []string{"/query?q=M1&timeout=banana", "/query?q=M1&engine=sql", "/query?q=M1+until+M2&tau=NaN"} {
		var ed struct {
			Error string `json:"error"`
		}
		if code := getDoc(t, ts.URL+target, &ed); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", target, code)
		}
		if ed.Error == "" {
			t.Fatalf("%s: empty error body", target)
		}
	}
}

// TestCoordinatorHugeK sends k far beyond any shard's answer: the
// coordinator must not size a shard reply by the client's k (k=1<<40 once
// panicked making that slice, in a goroutine nothing recovers), and answers
// the whole ranking, as the single store does.
func TestCoordinatorHugeK(t *testing.T) {
	doc := fixtureDoc(12)
	st, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(server.New(st, server.WithRandSeed(1)).Handler())
	defer single.Close()
	ct := httptest.NewServer(New(startShardServers(t, doc, 3), WithRandSeed(1)).Handler())
	defer ct.Close()

	type answer struct {
		Top    json.RawMessage `json:"top"`
		Shards struct {
			Errors []json.RawMessage `json:"errors"`
		} `json:"shards"`
	}
	for _, k := range []int64{1 << 40, 1<<63 - 1} {
		target := fmt.Sprintf("/query?q=M1&k=%d", k)
		var want, got answer
		if code := getDoc(t, single.URL+target, &want); code != http.StatusOK {
			t.Fatalf("single k=%d: status %d", k, code)
		}
		if code := getDoc(t, ct.URL+target, &got); code != http.StatusOK {
			t.Fatalf("coordinator k=%d: status %d", k, code)
		}
		if string(got.Top) != string(want.Top) || len(got.Shards.Errors) != 0 {
			t.Errorf("k=%d: coordinator top %s (shard errors %s), single store %s", k, got.Top, got.Shards.Errors, want.Top)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	doc := fixtureDoc(4)
	c := New(startShardServers(t, doc, 2), WithRandSeed(1))
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	if code := getDoc(t, ts.URL+"/query?q=M1", nil); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	var m struct {
		Coordinator struct {
			Counters map[string]int64 `json:"counters"`
			Gauges   map[string]int64 `json:"gauges"`
		} `json:"coordinator"`
		Shards []ShardInfo `json:"shards"`
	}
	if code := getDoc(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Coordinator.Counters["shard.queries"] != 1 {
		t.Errorf("shard.queries = %d, want 1", m.Coordinator.Counters["shard.queries"])
	}
	if m.Coordinator.Counters["shard.requests"] < 2 {
		t.Errorf("shard.requests = %d, want >= 2", m.Coordinator.Counters["shard.requests"])
	}
	if m.Coordinator.Gauges["shard.shards"] != 2 {
		t.Errorf("shard.shards gauge = %d, want 2", m.Coordinator.Gauges["shard.shards"])
	}
	if len(m.Shards) != 2 {
		t.Errorf("shards listing = %+v, want 2", m.Shards)
	}

	// Prometheus exposition includes the shard namespace.
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "shard_queries") {
		t.Errorf("prometheus exposition lacks shard_queries:\n%s", sb.String())
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
