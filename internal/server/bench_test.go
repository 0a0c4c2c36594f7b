package server

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"htlvideo"
	"htlvideo/internal/casablanca"
	"htlvideo/internal/workload"
)

// coldShape is one MIX6 query shape at its level.
type coldShape struct {
	name, text string
	level      int
}

// coldShapes are the six query shapes of the serving benchmark's MIX6
// (bench/queries.go) with their levels.
var coldShapes = []coldShape{
	{"type1", casablanca.Query1, 3},
	{"until", "M1 until M2", 3},
	{"type2", "exists z . (present(z) and type(z) = 'airplane') and eventually (present(z) and moving(z))", 3},
	{"conj", "exists z . (present(z) and type(z) = 'airplane') and [h <- height(z)] eventually (present(z) and height(z) > h)", 3},
	{"extconj", "outdoor = 1 and at-shot-level(M1 until M2)", 2},
	{"general", "not (M1 until M2)", 3},
}

// corpusServer serves a store shaped like the serving benchmark's C10k
// corpus, videos × scenes × 10 shots.
func corpusServer(tb testing.TB, videos, scenes int, opts ...Option) *Server {
	tb.Helper()
	tax := htlvideo.NewTaxonomy()
	for _, e := range workload.CorpusTaxonomy {
		tax.MustAdd(e[0], e[1])
	}
	st := htlvideo.NewStore(tax, htlvideo.DefaultWeights())
	rng := rand.New(rand.NewSource(1))
	for id := 1; id <= videos; id++ {
		if err := st.Add(workload.CorpusVideo(rng, id, scenes, 10)); err != nil {
			tb.Fatal(err)
		}
	}
	return New(st, append([]Option{WithRandSeed(1)}, opts...)...)
}

// benchServer is the benchmarks' corpusServer: C10k's 64 videos × 16
// scenes, 8 × 4 under -short.
func benchServer(tb testing.TB, opts ...Option) *Server {
	if testing.Short() {
		return corpusServer(tb, 8, 4, opts...)
	}
	return corpusServer(tb, 64, 16, opts...)
}

// BenchmarkColdRequest is one GET /query of each MIX6 shape through the
// server's handler, with the result cache off: what one request of the
// serving benchmark's serve_cold_mix costs between the HTTP layers —
// parameter parsing, the per-video fan-out, the store queries and the top-k
// merge. The per-video picture systems are built before the timed loop.
func BenchmarkColdRequest(b *testing.B) { benchRequests(b, benchServer(b)) }

// BenchmarkWarmRequest is BenchmarkColdRequest against the default result
// cache, warmed: every per-video store query of a request is a cache hit,
// as on the serving benchmark's serve_zipf for its frequent texts.
func BenchmarkWarmRequest(b *testing.B) {
	benchRequests(b, benchServer(b, WithResultCache(htlvideo.ResultCacheConfig{Capacity: htlvideo.DefaultResultCacheCapacity})))
}

// getShape returns a function that sends h one GET /query of the MIX6 shape
// sh with k=10, as the serving benchmark does, and fails tb unless it answers
// 200.
func getShape(tb testing.TB, h http.Handler, sh coldShape) func() {
	target := "/query?" + url.Values{"q": {sh.text}, "level": {strconv.Itoa(sh.level)}, "k": {"10"}}.Encode()
	return func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			tb.Fatalf("%s: status %d: %s", sh.name, w.Code, w.Body)
		}
	}
}

func benchRequests(b *testing.B, srv *Server) {
	h := srv.Handler()
	for _, sh := range coldShapes {
		get := getShape(b, h, sh)
		b.Run(sh.name, func(b *testing.B) {
			get()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
		})
	}
}

// coldRequestBudget is what one cold GET /query of each MIX6 shape (k=10, the
// result cache off) allocates through the server's handler on the -short
// corpus, 8 videos × 4 scenes × 10 shots, with one worker: the parameter
// parsing, the per-video fan-out, eight store queries, the top-k merge and
// the JSON answer. One request in 64 traces its store queries, as the server
// samples them, and the budget's 64 requests hold exactly one such. While
// every request traced them: type1 360 allocations / 44.4 KB, until 262 /
// 33.7 KB, type2 338 / 39.4 KB, conj 377 / 44.3 KB, extconj 272 / 31.4 KB,
// general 266 / 28.8 KB. TestColdRequestAllocBudget fails at 1.1 times
// either figure (`make budget`).
var coldRequestBudget = map[string]struct{ allocs, bytes float64 }{
	"type1":   {allocs: 281, bytes: 35_900},
	"until":   {allocs: 199, bytes: 27_100},
	"type2":   {allocs: 272, bytes: 32_500},
	"conj":    {allocs: 293, bytes: 35_300},
	"extconj": {allocs: 209, bytes: 24_800},
	"general": {allocs: 195, bytes: 21_700},
}

func TestColdRequestAllocBudget(t *testing.T) {
	skipUnlessPoolsKeep(t)
	h := corpusServer(t, 8, 4, WithParallelism(1)).Handler()
	for _, sh := range coldShapes {
		get := getShape(t, h, sh)
		get() // build the per-video systems
		allocs, bytes := perRun(64, get)
		budget := coldRequestBudget[sh.name]
		t.Logf("%s: %.0f allocations, %.0f bytes per request (landed %.0f, %.0f)", sh.name, allocs, bytes, budget.allocs, budget.bytes)
		if allocs > 1.1*budget.allocs {
			t.Errorf("%s: %.0f allocations per request, budget %.0f", sh.name, allocs, 1.1*budget.allocs)
		}
		if bytes > 1.1*budget.bytes {
			t.Errorf("%s: %.0f bytes per request, budget %.0f", sh.name, bytes, 1.1*budget.bytes)
		}
	}
}

// perRun is testing.AllocsPerRun for allocations and bytes at once: the means
// of runtime.MemStats' Mallocs and TotalAlloc over runs calls of f, after one
// warm-up call, with GOMAXPROCS at 1.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// skipUnlessPoolsKeep skips an allocation-count test under the race
// detector, whose build makes sync.Pool drop a quarter of all puts on
// purpose: the evaluation arenas are then regrown at random and the count
// means nothing.
func skipUnlessPoolsKeep(t *testing.T) {
	t.Helper()
	pool := sync.Pool{New: func() any { return new(int) }}
	for i := 0; i < 64; i++ {
		x := pool.Get()
		pool.Put(x)
		if pool.Get() != x {
			t.Skip("sync.Pool does not return what was just put (race detector build): allocation counts are not reproducible")
		}
		pool.Put(x)
	}
}
