package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"htlvideo"
	"htlvideo/internal/obs"
	"htlvideo/internal/workload"
)

// corpusServer serves a store shaped like the serving benchmark's C10k
// corpus, videos × scenes × 10 shots.
func corpusServer(tb testing.TB, videos, scenes int, opts ...Option) *Server {
	tb.Helper()
	tax := htlvideo.NewTaxonomy()
	for _, e := range workload.CorpusTaxonomy {
		tax.MustAdd(e[0], e[1])
	}
	st := htlvideo.NewStore(tax, htlvideo.DefaultWeights())
	if err := workload.Corpus(videos, scenes, 10, st.Add); err != nil {
		tb.Fatal(err)
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
// sh with k=10, as the serving benchmark does, with trace as its X-Htl-Trace
// header when set, and fails tb unless it answers 200.
func getShape(tb testing.TB, h http.Handler, sh workload.Shape, trace string) func() {
	target := "/query?" + url.Values{"q": {sh.Text}, "level": {strconv.Itoa(sh.Level)}, "k": {"10"}}.Encode()
	return func() {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodGet, target, nil)
		if trace != "" {
			r.Header.Set(obs.TraceHeader, trace)
		}
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			tb.Fatalf("%s: status %d: %s", sh.Name, w.Code, w.Body)
		}
	}
}

func benchRequests(b *testing.B, srv *Server) {
	h := srv.Handler()
	for _, sh := range workload.MIX6 {
		get := getShape(b, h, sh, "")
		b.Run(sh.Name, func(b *testing.B) {
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
// general 266 / 28.8 KB. While the merge was a threshold scan with one
// sorted-access iterator per video: type1 281 / 35.9 KB, until 199 / 27.1 KB,
// type2 272 / 32.5 KB, conj 293 / 35.3 KB, extconj 209 / 24.8 KB, general
// 195 / 21.7 KB. While the JSON answer was indented by an encoder made per
// call: type1 263 / 33.3 KB, until 184 / 25.0 KB, type2 254 / 29.7 KB, conj
// 277 / 32.8 KB, extconj 195 / 23.4 KB, general 184 / 20.9 KB. While each
// video's store query built a Results, a one-entry map and a one-key
// fan-out of its own: type1 254 / 29.9 KB, until 175 / 21.6 KB, type2 244 /
// 26.3 KB, conj 266 / 29.3 KB, extconj 187 / 21.5 KB, general 177 / 19.8 KB.
// While each video's store query applied the request's options into a
// config of its own and the ranking copied the lists into a map: type1 166 /
// 22.5 KB, until 87 / 14.2 KB, type2 156 / 18.9 KB, conj 178 / 21.9 KB,
// extconj 99 / 14.1 KB, general 89 / 12.4 KB. While the parser lexed into a
// token slice grown from nil, the handler compiled by the printed formula,
// and the eligible videos and the answer's runs were appended one by one:
// type1 161 / 21.2 KB, until 82 / 12.9 KB, type2 151 / 17.6 KB, conj 174 /
// 20.6 KB, extconj 94 / 12.8 KB, general 84 / 11.1 KB.
// TestColdRequestAllocBudget fails at 1.1 times either figure
// (`make budget`), and holds a shard request to the same: one whose
// X-Htl-Trace id a coordinator flagged unsampled, so none of its 64 requests
// is traced. The same request under a bare id, traced every time, is logged
// and not bounded.
var coldRequestBudget = map[string]struct{ allocs, bytes float64 }{
	"type1":   {allocs: 121, bytes: 14_900},
	"until":   {allocs: 71, bytes: 11_800},
	"type2":   {allocs: 125, bytes: 14_100},
	"conj":    {allocs: 145, bytes: 14_700},
	"extconj": {allocs: 79, bytes: 11_300},
	"general": {allocs: 73, bytes: 10_500},
}

func TestColdRequestAllocBudget(t *testing.T) {
	skipUnlessPoolsKeep(t)
	h := corpusServer(t, 8, 4, WithParallelism(1)).Handler()
	const id = "0123456789abcdef0123456789abcdef"
	for _, sh := range workload.MIX6 {
		budget := coldRequestBudget[sh.Name]
		getShape(t, h, sh, "")() // build the per-video systems
		for _, req := range []struct {
			name, trace string
			bounded     bool
		}{
			{sh.Name, "", true},
			{sh.Name + " unsampled shard request", obs.FormatTraceHeader(id, false), true},
			{sh.Name + " traced shard request", id, false},
		} {
			allocs, bytes := perRun(64, getShape(t, h, sh, req.trace))
			if !req.bounded {
				t.Logf("%s: %.0f allocations, %.0f bytes per request (not bounded)", req.name, allocs, bytes)
				continue
			}
			t.Logf("%s: %.0f allocations, %.0f bytes per request (landed %.0f, %.0f)", req.name, allocs, bytes, budget.allocs, budget.bytes)
			if allocs > 1.1*budget.allocs {
				t.Errorf("%s: %.0f allocations per request, budget %.0f", req.name, allocs, 1.1*budget.allocs)
			}
			if bytes > 1.1*budget.bytes {
				t.Errorf("%s: %.0f bytes per request, budget %.0f", req.name, bytes, 1.1*budget.bytes)
			}
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
