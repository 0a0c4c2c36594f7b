package htlvideo

// Tests for the query-compilation and caching layer: plan-cache identity and
// counters, result-cache hits, generation-based invalidation, singleflight
// deduplication under concurrency, and byte-identical cached vs uncached
// results across a realistic query suite.

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/core"
)

// TestCompileSharesPlans: compiling the same query twice — or textual
// variants of one formula — yields one CompiledQuery through the plan cache.
func TestCompileSharesPlans(t *testing.T) {
	s := resilienceStore(t, 1)
	cq1, err := s.Compile("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	cq2, err := s.Compile("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	if cq1 != cq2 {
		t.Fatal("identical query text compiled twice")
	}
	// A textual variant parses to the same formula and converges on the same
	// compiled query through the canonical key.
	cq3, err := s.Compile("(M1 until M2)")
	if err != nil {
		t.Fatal(err)
	}
	if cq3 != cq1 {
		t.Fatal("textual variant did not share the compiled plan")
	}
	if cq1.plan.Key != cq1.f.String() {
		t.Fatalf("Key = %q, want the canonical formula text", cq1.plan.Key)
	}
	pc := s.Stats().PlanCache
	if pc.Hits != 1 || pc.Misses != 2 {
		t.Fatalf("plan cache = %+v, want 1 hit (exact text), 2 misses", pc)
	}
	// Parse errors are not cached.
	if _, err := s.Compile("((("); err == nil {
		t.Fatal("malformed query compiled")
	}
	if got := s.Stats().PlanCache; got.Hits != 1 || got.Misses != 2 {
		t.Fatalf("plan cache moved on a parse error: %+v", got)
	}
}

// TestPlanCacheCountersOnQuery: Store.Query goes through the plan cache
// transparently — a repeated query skips the parse.
func TestPlanCacheCountersOnQuery(t *testing.T) {
	s := resilienceStore(t, 2)
	for i := 0; i < 3; i++ {
		if _, err := s.Query("M1 until M2"); err != nil {
			t.Fatal(err)
		}
	}
	pc := s.Stats().PlanCache
	if pc.Misses != 1 || pc.Hits != 2 {
		t.Fatalf("plan cache = %+v, want 1 miss then 2 hits", pc)
	}
	if pc.Size == 0 {
		t.Fatal("plan cache size gauge did not move")
	}
}

// TestResultCacheHitInvalidationOnAdd: with the result cache on, a repeated
// query is served without evaluating any video; adding a video bumps the
// store generation and forces re-evaluation.
func TestResultCacheHitInvalidationOnAdd(t *testing.T) {
	s := resilienceStore(t, 3)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})

	r1, err := s.Query("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Pool.VideosEvaluated; got != 3 {
		t.Fatalf("VideosEvaluated = %d, want 3", got)
	}
	r2, err := s.Query("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Fatal("cache hit did not return the shared result")
	}
	if got := s.Stats().Pool.VideosEvaluated; got != 3 {
		t.Fatalf("VideosEvaluated = %d after a cache hit, want still 3", got)
	}
	rc := s.Stats().ResultCache
	if rc.Misses != 1 || rc.Hits != 1 || rc.Size != 1 {
		t.Fatalf("result cache = %+v, want 1 miss, 1 hit, size 1", rc)
	}

	// Different options are different cache keys.
	if _, err := s.Query("M1 until M2", WithUntilThreshold(0.9)); err != nil {
		t.Fatal(err)
	}
	if rc := s.Stats().ResultCache; rc.Misses != 2 {
		t.Fatalf("option variant did not miss: %+v", rc)
	}

	// Adding a video invalidates by generation: the same query re-evaluates
	// and covers the new video.
	v := NewVideo(4, "clip 4", map[string]int{"shot": 2})
	v.Root.AppendChild(Seg().Attr("M1", Int(1)).Build())
	v.Root.AppendChild(Seg().Attr("M2", Int(1)).Build())
	if err := s.Add(v); err != nil {
		t.Fatal(err)
	}
	r3, err := s.Query("M1 until M2")
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.PerVideo) != 4 {
		t.Fatalf("after Add: PerVideo = %d videos, want 4", len(r3.PerVideo))
	}
	if got := s.Stats().Pool.VideosEvaluated; got != 3+3+4 {
		t.Fatalf("VideosEvaluated = %d, want 10 (3 cold + 3 variant + 4 after Add)", got)
	}
}

// TestResultCacheSingleflight: N concurrent identical queries against a cold
// cache collapse onto one evaluation; everyone gets an answer, exactly one
// paid for it. Meaningful under -race.
func TestResultCacheSingleflight(t *testing.T) {
	s := resilienceStore(t, 3)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Query("M1 until M2")
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.PerVideo) != 3 {
				t.Errorf("PerVideo = %d videos, want 3", len(res.PerVideo))
			}
		}()
	}
	wg.Wait()
	rc := s.Stats().ResultCache
	if rc.Misses != 1 {
		t.Fatalf("Misses = %d, want exactly 1 evaluation", rc.Misses)
	}
	if rc.Hits+rc.Deduped != n-1 {
		t.Fatalf("Hits (%d) + Deduped (%d) = %d, want %d", rc.Hits, rc.Deduped, rc.Hits+rc.Deduped, n-1)
	}
	if got := s.Stats().Pool.VideosEvaluated; got != 3 {
		t.Fatalf("VideosEvaluated = %d, want 3 (one evaluation total)", got)
	}
}

// TestWithoutCacheBypasses: WithoutCache evaluates from scratch and leaves
// both caches untouched.
func TestWithoutCacheBypasses(t *testing.T) {
	s := resilienceStore(t, 2)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	for i := 0; i < 2; i++ {
		if _, err := s.Query("M1 until M2", WithoutCache()); err != nil {
			t.Fatal(err)
		}
	}
	if pc := s.Stats().PlanCache; pc.Hits != 0 || pc.Misses != 0 {
		t.Fatalf("plan cache touched: %+v", pc)
	}
	if rc := s.Stats().ResultCache; rc.Hits != 0 || rc.Misses != 0 || rc.Size != 0 {
		t.Fatalf("result cache touched: %+v", rc)
	}
	if got := s.Stats().Pool.VideosEvaluated; got != 4 {
		t.Fatalf("VideosEvaluated = %d, want 4 (both runs evaluated)", got)
	}
}

// TestResultCacheTTL: entries expire by age.
func TestResultCacheTTL(t *testing.T) {
	s := resilienceStore(t, 1)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16, TTL: time.Millisecond})
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := s.Query("M1"); err != nil {
		t.Fatal(err)
	}
	rc := s.Stats().ResultCache
	if rc.Misses != 2 || rc.Hits != 0 {
		t.Fatalf("result cache = %+v, want 2 misses (entry expired)", rc)
	}
}

// resultFingerprint reduces a Results to its observable content for
// byte-identity comparison.
func resultFingerprint(t *testing.T, res *Results) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Class    Class
		PerVideo map[int]SimList
		Errors   int
	}{res.Class, res.PerVideo, len(res.Errors)})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCachedResultsIdentical: across a realistic suite — the paper's
// Casablanca queries plus temporal, duplicated-subtree, quantified, level-
// modal and general (reference-engine fallback) forms — the cached answer is
// byte-identical to a from-scratch evaluation on an identical store.
func TestCachedResultsIdentical(t *testing.T) {
	type tc struct {
		name  string
		store func(testing.TB) *Store
		query string
		opts  []QueryOption
	}
	newCasablanca := func(t testing.TB) *Store {
		s := NewStore(casablanca.Taxonomy(), casablanca.Weights())
		if err := s.Add(casablanca.Video()); err != nil {
			t.Fatal(err)
		}
		return s
	}
	newResilience := func(t testing.TB) *Store { return resilienceStore(t, 3) }
	cases := []tc{
		{"moving-train", newCasablanca, casablanca.MovingTrainQuery, nil},
		{"man-woman", newCasablanca, casablanca.ManWomanQuery, nil},
		{"query1", newCasablanca, casablanca.Query1, nil},
		{"until", newResilience, "M1 until M2", nil},
		{"dup-subtree", newResilience, "(M1 until M2) and (M1 until M2)", nil},
		{"quantified-until", newResilience, "exists x . present(x) until M1", nil},
		{"at-level", newResilience, "at-shot-level(M1)", []QueryOption{AtRoot()}},
		{"general-fallback", newResilience, "not eventually M2", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cold := c.store(t)
			want, err := cold.Query(c.query, append([]QueryOption{WithoutCache()}, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}

			warm := c.store(t)
			warm.EnableResultCache(ResultCacheConfig{Capacity: 8})
			if _, err := warm.Query(c.query, c.opts...); err != nil {
				t.Fatal(err)
			}
			got, err := warm.Query(c.query, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Stats().ResultCache.Hits == 0 {
				t.Fatal("second query did not hit the result cache")
			}
			if gf, wf := resultFingerprint(t, got), resultFingerprint(t, want); gf != wf {
				t.Fatalf("cached result differs from uncached:\n cached: %s\n fresh:  %s", gf, wf)
			}
		})
	}
}

// TestResultCacheKeysOnTopK: WithTopK's k is part of the result-cache key —
// the same query with no k, with k=5 and with k=10 makes three entries, each
// answers its own k exactly, and each is a hit when asked again.
func TestResultCacheKeysOnTopK(t *testing.T) {
	s := mix6Corpus(t, 8, 4, 10)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	const q = "M1 until M2"
	full, err := s.Query(q, AtLevel(3), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		opts []QueryOption
		k    int // the ranking asked of the answer
	}{
		{nil, 10},
		{[]QueryOption{WithTopK(5)}, 5},
		{[]QueryOption{WithTopK(10)}, 10},
	}
	first := make([]*Results, len(cases))
	for round := range 2 {
		for i, c := range cases {
			res, err := s.Query(q, append([]QueryOption{AtLevel(3)}, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rankedBytes(res.TopK(c.k)), rankedBytes(core.TopKBySort(full.PerVideo, c.k)); got != want {
				t.Errorf("case %d round %d:\ngot  %s\nwant %s", i, round, got, want)
			}
			if round == 0 {
				first[i] = res
			} else if res != first[i] {
				t.Errorf("case %d: the second query was not answered by its own entry", i)
			}
		}
	}
	if got, want := resultFingerprint(t, first[0]), resultFingerprint(t, full); got != want {
		t.Error("the cached answer with no k holds other lists than an uncached query")
	}
	if rc := s.Stats().ResultCache; rc.Misses != 3 || rc.Hits != 3 || rc.Size != 3 {
		t.Fatalf("result cache = %+v, want 3 misses, 3 hits, size 3", rc)
	}
}
