package htlvideo

// Store-level observability tests: cache hit/miss accounting across warm and
// cold runs, panic-recovery and per-video failure counters, trace structure
// and timing consistency, per-engine/per-class query breakdowns, SQL
// statement stats, and the debug HTTP surface — all proven with
// internal/faultinject scenarios and kept clean under `go test -race`.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"htlvideo/internal/faultinject"
)

// TestCacheCountersWarmCold proves the picture-system cache counters across a
// cold run (every video misses), a warm run (every video hits), and a run at
// a different level (new cache keys miss again).
func TestCacheCountersWarmCold(t *testing.T) {
	s := resilienceStore(t, 3)
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	c := s.Stats().Cache
	if c.Misses != 3 || c.Hits != 0 || c.Size != 3 {
		t.Fatalf("cold run: %+v, want 3 misses, 0 hits, size 3", c)
	}
	if _, err := s.Query("M2"); err != nil {
		t.Fatal(err)
	}
	c = s.Stats().Cache
	if c.Misses != 3 || c.Hits != 3 || c.Size != 3 {
		t.Fatalf("warm run: %+v, want 3 misses, 3 hits, size 3", c)
	}
	// The root level is a different cache key per video: cold again.
	if _, err := s.Query("at-shot-level(M1)", AtRoot()); err != nil {
		t.Fatal(err)
	}
	c = s.Stats().Cache
	if c.Misses != 6 || c.Hits != 3 || c.Size != 6 {
		t.Fatalf("root-level run: %+v, want 6 misses, 3 hits, size 6", c)
	}
}

// TestCacheEvictionCounted: a failed build is evicted (counted) and the next
// query rebuilds it as a fresh miss.
func TestCacheEvictionCounted(t *testing.T) {
	s := resilienceStore(t, 3)
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SitePictureNewSystem,
		Key:  2,
		Kind: faultinject.KindError,
	}))
	if _, err := s.Query("M1"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	c := s.Stats().Cache
	if c.Misses != 3 || c.Evicted != 1 || c.Size != 2 {
		t.Fatalf("after failed build: %+v, want 3 misses, 1 evicted, size 2", c)
	}
	faultinject.Disarm()
	if _, err := s.Query("M1"); err != nil {
		t.Fatalf("query after eviction: %v", err)
	}
	c = s.Stats().Cache
	if c.Misses != 4 || c.Hits != 2 || c.Size != 3 {
		t.Fatalf("after retry: %+v, want 4 misses, 2 hits, size 3", c)
	}
}

// TestPanicRecoveredCounters: a fault-injected panic increments the
// panic-recovered gauge and the failed-video counter, and the surviving
// VideoError carries a positive elapsed duration.
func TestPanicRecoveredCounters(t *testing.T) {
	s := resilienceStore(t, 3)
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SitePictureNewSystem,
		Key:  2,
		Kind: faultinject.KindPanic,
	}))
	res, err := s.Query("M1", WithPartialResults())
	if err != nil {
		t.Fatalf("partial query failed outright: %v", err)
	}
	p := s.Stats().Pool
	if p.PanicsRecovered != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", p.PanicsRecovered)
	}
	if p.VideosFailed != 1 || p.VideosEvaluated != 2 {
		t.Fatalf("pool stats = %+v, want 1 failed, 2 evaluated", p)
	}
	if p.InFlight != 0 || p.Queued != 0 {
		t.Fatalf("pool gauges did not settle: %+v", p)
	}
	var ve *VideoError
	if len(res.Errors) != 1 || !errors.As(res.Errors[0], &ve) {
		t.Fatalf("Errors = %v, want one *VideoError", res.Errors)
	}
	if ve.Elapsed <= 0 {
		t.Fatalf("VideoError.Elapsed = %v, want > 0", ve.Elapsed)
	}
	// The partial-result query itself succeeded: no query-level error.
	if q := s.Stats().Queries; q.Total != 1 || q.Errors != 0 {
		t.Fatalf("query stats = %+v, want 1 total, 0 errors", q)
	}
}

// TestVideosSkippedCounter: videos lacking the queried level are skipped and
// counted, not errored.
func TestVideosSkippedCounter(t *testing.T) {
	s := resilienceStore(t, 3)
	res, err := s.Query("M1", AtLevel(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerVideo) != 0 {
		t.Fatalf("PerVideo = %v, want empty", res.PerVideo)
	}
	if got := s.Stats().Pool.VideosSkipped; got != 3 {
		t.Fatalf("VideosSkipped = %d, want 3", got)
	}
}

// TestTraceStagesWithinWallTime is the trace acceptance criterion: a traced
// query (with fault-injected stalls making stage durations non-trivial)
// yields stages parse → eval → merge whose durations sum to within the
// measured wall time, with per-video spans nested under eval and tagged.
func TestTraceStagesWithinWallTime(t *testing.T) {
	s := resilienceStore(t, 3)
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site:  faultinject.SiteAtomicEval,
		Key:   faultinject.KeyAny,
		Kind:  faultinject.KindStall,
		Stall: 2 * time.Millisecond,
	}))
	var tc TraceCollector
	start := time.Now()
	if _, err := s.QueryCtx(context.Background(), "M1 until M2", WithTrace(&tc)); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	last := tc.Last()
	if last == nil {
		t.Fatal("WithTrace delivered no trace")
	}
	snap := last.Snapshot()

	if snap.Name != "M1 until M2" {
		t.Fatalf("trace name = %q", snap.Name)
	}
	for tag, want := range map[string]string{
		"engine": "auto", "class": "type1", "level": "2", "videos": "3",
	} {
		if got := snap.Tags[tag]; got != want {
			t.Errorf("tag %s = %q, want %q", tag, got, want)
		}
	}
	if len(snap.Spans) != 3 || snap.Spans[0].Name != "parse" ||
		snap.Spans[1].Name != "eval" || snap.Spans[2].Name != "merge" {
		t.Fatalf("stages = %+v, want parse, eval, merge", snap.Spans)
	}

	// Timing consistency: stages are sequential, so their durations sum to at
	// most the trace total, which in turn fits the wall time measured around
	// the call.
	var sum time.Duration
	for _, sp := range snap.Spans {
		sum += sp.Duration
	}
	if sum > snap.Duration {
		t.Errorf("stage durations sum %v > trace total %v", sum, snap.Duration)
	}
	if snap.Duration > wall {
		t.Errorf("trace total %v > measured wall time %v", snap.Duration, wall)
	}

	// With the injected stall the eval stage did real, visible work.
	eval := snap.Spans[1]
	if eval.Duration < 2*time.Millisecond {
		t.Errorf("eval duration = %v, want at least the injected 2ms stall", eval.Duration)
	}
	if len(eval.Children) != 3 {
		t.Fatalf("eval children = %d, want one span per video", len(eval.Children))
	}
	seen := map[string]bool{}
	for _, v := range eval.Children {
		if v.Name != "video" {
			t.Fatalf("eval child = %q, want video", v.Name)
		}
		seen[v.Tags["video"]] = true
		var names []string
		for _, c := range v.Children {
			names = append(names, c.Name)
		}
		if len(names) != 2 || names[0] != "system" || names[1] != "engine" {
			t.Fatalf("video %s spans = %v, want [system engine]", v.Tags["video"], names)
		}
		if v.Children[0].Duration+v.Children[1].Duration > v.Duration {
			t.Errorf("video %s child durations exceed the video span", v.Tags["video"])
		}
	}
	if len(seen) != 3 {
		t.Fatalf("video tags = %v, want 3 distinct ids", seen)
	}
}

// TestTraceOnFailedQuery: the per-query sink still receives the trace when
// the query fails, tagged with the error.
func TestTraceOnFailedQuery(t *testing.T) {
	s := resilienceStore(t, 1)
	armPlan(t, faultinject.NewPlan(1, faultinject.Rule{
		Site: faultinject.SitePictureNewSystem,
		Key:  1,
		Kind: faultinject.KindError,
	}))
	var tc TraceCollector
	if _, err := s.Query("M1", WithTrace(&tc)); err == nil {
		t.Fatal("query succeeded despite injected build failure")
	}
	last := tc.Last()
	if last == nil {
		t.Fatal("failed query delivered no trace")
	}
	if tag := last.Snapshot().Tags["error"]; !strings.Contains(tag, "injected") {
		t.Fatalf("error tag = %q, want the injected failure", tag)
	}
	if q := s.Stats().Queries; q.Total != 1 || q.Errors != 1 {
		t.Fatalf("query stats = %+v, want 1 total, 1 error", q)
	}
}

// TestQueryBreakdowns: per-engine and per-class counters, parse failures, and
// the auto-engine fallback counter.
func TestQueryBreakdowns(t *testing.T) {
	s := resilienceStore(t, 2)
	if _, err := s.Query("(((M1"); err == nil {
		t.Fatal("malformed query parsed")
	}
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("M1 until M2", WithEngine(EngineDirect)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("M2", WithEngine(EngineReference)); err != nil {
		t.Fatal(err)
	}
	q := s.Stats().Queries
	if q.Total != 4 || q.Errors != 1 {
		t.Fatalf("totals = %+v, want 4 total, 1 error", q)
	}
	// The parse failure contributes no engine/class breakdown.
	wantEngine := map[string]int64{"auto": 1, "core": 1, "refeval": 1}
	for k, want := range wantEngine {
		if q.ByEngine[k] != want {
			t.Errorf("ByEngine[%s] = %d, want %d", k, q.ByEngine[k], want)
		}
	}
	var classTotal int64
	for _, v := range q.ByClass {
		classTotal += v
	}
	if classTotal != 3 {
		t.Errorf("ByClass sums to %d, want 3 (parse failure excluded): %v", classTotal, q.ByClass)
	}
	if q.Latency.Count != 4 {
		t.Errorf("latency count = %d, want 4", q.Latency.Count)
	}
}

// TestFallbackCounter: a general formula under the auto engine falls back to
// the reference evaluator, is counted, and every video's engine span says so;
// a conjunctive one runs on core and does not fall back.
func TestFallbackCounter(t *testing.T) {
	s := resilienceStore(t, 1)
	engineTags := func(tr *Trace) (tags []map[string]string) {
		for _, v := range tr.Snapshot().Spans[1].Children { // eval → video
			tags = append(tags, v.Children[1].Tags) // system, engine
		}
		if len(tags) == 0 {
			t.Fatal("the trace has no video spans")
		}
		return tags
	}
	var tc TraceCollector
	res, err := s.Query("not eventually M2", WithTrace(&tc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassGeneral {
		t.Fatalf("class = %v, want general", res.Class)
	}
	if got := s.Stats().Queries.Fallbacks; got != 1 {
		t.Fatalf("Fallbacks = %d, want 1", got)
	}
	for _, tags := range engineTags(tc.Last()) {
		if tags["engine"] != "refeval" || tags["fallback"] != "true" {
			t.Errorf("general formula's engine span tags = %v, want engine=refeval fallback=true", tags)
		}
	}
	if _, err := s.Query("eventually M2", WithTrace(&tc)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Queries.Fallbacks; got != 1 {
		t.Fatalf("Fallbacks = %d after a conjunctive query, want 1", got)
	}
	for _, tags := range engineTags(tc.Last()) {
		if tags["engine"] != "core" || tags["fallback"] != "" {
			t.Errorf("conjunctive formula's engine span tags = %v, want engine=core", tags)
		}
	}
}

// TestSQLStats: the SQL baseline reports per-statement counts, row totals and
// latencies.
func TestSQLStats(t *testing.T) {
	s := resilienceStore(t, 2)
	if _, err := s.Query("M1 until M2", WithEngine(EngineSQL)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats().SQL
	if st.Statements == 0 {
		t.Fatal("SQL engine recorded no statements")
	}
	if st.Rows == 0 {
		t.Fatal("SQL engine recorded no rows")
	}
	if st.StmtLatency.Count != st.Statements {
		t.Fatalf("statement latency count = %d, want %d", st.StmtLatency.Count, st.Statements)
	}
	if s.Stats().Queries.ByEngine["sqlgen"] != 1 {
		t.Fatalf("ByEngine = %v, want sqlgen: 1", s.Stats().Queries.ByEngine)
	}
}

// TestSlowLogRecordsQueries: every query lands in the slow log with its full
// trace, slowest first.
func TestSlowLogRecordsQueries(t *testing.T) {
	s := resilienceStore(t, 2)
	for _, q := range []string{"M1", "M2", "M1 until M2"} {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	entries := s.SlowLog().Snapshot()
	if len(entries) != 3 {
		t.Fatalf("slow log entries = %d, want 3", len(entries))
	}
	for i, e := range entries {
		if e.Trace.Name != e.Query {
			t.Fatalf("entry %d: trace name %q != query %q", i, e.Trace.Name, e.Query)
		}
		if i > 0 && entries[i-1].Duration < e.Duration {
			t.Fatal("slow log not ordered slowest-first")
		}
	}
}

// TestUnsampledQuery: an Unsampled query, a parse failure included, leaves
// nothing in the trace ring and enters the slow log by name, plan key and
// duration with no span tree, while the query counters and the latency
// histogram count it; WithTrace, WithTraceID and Explain trace it regardless.
func TestUnsampledQuery(t *testing.T) {
	s := resilienceStore(t, 2)
	if _, err := s.Query("M1 until M2", Unsampled()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("M1 until (", Unsampled()); err == nil {
		t.Fatal("a malformed query parsed")
	}
	if n := s.TraceRing().Len(); n != 0 {
		t.Fatalf("unsampled queries left %d traces in the ring", n)
	}
	slow := s.SlowLog().Snapshot()
	if len(slow) != 2 {
		t.Fatalf("slow log holds %d entries, want 2", len(slow))
	}
	for _, e := range slow {
		if e.Trace != nil || e.Duration <= 0 {
			t.Errorf("slow-log entry %+v, want a duration and no trace", e)
		}
		if e.Query == "M1 until M2" && e.PlanKey == "" {
			t.Errorf("slow-log entry %+v has no plan key", e)
		}
	}
	if q := s.Stats().Queries; q.Total != 2 || q.Errors != 1 || q.Latency.Count != 2 || q.ByClass["type1"] != 1 {
		t.Fatalf("query stats = %+v, want both queries counted", q)
	}

	var tc TraceCollector
	if _, err := s.Query("M1", Unsampled(), WithTrace(&tc)); err != nil || tc.Last() == nil {
		t.Fatalf("Unsampled with WithTrace: err %v, no trace delivered", err)
	}
	if _, err := s.Query("M2", Unsampled(), WithTraceID("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.TraceRing().Get("0123456789abcdef"); !ok {
		t.Fatal("Unsampled with WithTraceID left no trace under the id")
	}
	ex, err := s.Explain("M1", Unsampled())
	if err != nil {
		t.Fatal(err)
	}
	if ex.TraceID == "" || ex.TotalTime <= 0 {
		t.Fatalf("Unsampled explain: trace id %q, total %v", ex.TraceID, ex.TotalTime)
	}
	if n := s.TraceRing().Len(); n != 3 {
		t.Fatalf("ring holds %d traces, want the three forced ones", n)
	}
}

// TestDebugHandler: the /metrics and /debug/slowlog endpoints serve valid
// JSON reflecting the store's counters.
func TestDebugHandler(t *testing.T) {
	s := resilienceStore(t, 2)
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()

	var metrics struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
		Stats Stats `json:"stats"`
	}
	getJSON(t, srv.URL+"/metrics", &metrics)
	if metrics.Metrics.Counters["cache.misses"] != 2 {
		t.Fatalf("/metrics cache.misses = %d, want 2", metrics.Metrics.Counters["cache.misses"])
	}
	if metrics.Stats.Queries.Total != 1 {
		t.Fatalf("/metrics stats total = %d, want 1", metrics.Stats.Queries.Total)
	}

	var slow []SlowEntry
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
// HTTP handler concurrently; meaningful under -race.
func TestStatsConcurrentWithQueries(t *testing.T) {
	s := resilienceStore(t, 4)
	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()
	var tc TraceCollector
	queries := []string{"M1", "M2", "M1 until M2", "eventually M2"}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		q := queries[i%len(queries)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Query(q, WithParallelism(2), WithTrace(&tc)); err != nil {
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
	if got := len(tc.Traces()); got != 12 {
		t.Fatalf("sink received %d traces, want 12", got)
	}
}
