package server

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"htlvideo"
	"htlvideo/internal/casablanca"
	"htlvideo/internal/workload"
)

// coldShapes are the six query shapes of the serving benchmark's MIX6
// (bench/queries.go) with their levels.
var coldShapes = []struct {
	name, text string
	level      int
}{
	{"type1", casablanca.Query1, 3},
	{"until", "M1 until M2", 3},
	{"type2", "exists z . (present(z) and type(z) = 'airplane') and eventually (present(z) and moving(z))", 3},
	{"conj", "exists z . (present(z) and type(z) = 'airplane') and [h <- height(z)] eventually (present(z) and height(z) > h)", 3},
	{"extconj", "outdoor = 1 and at-shot-level(M1 until M2)", 2},
	{"general", "not (M1 until M2)", 3},
}

// corpusServer serves a store shaped like the serving benchmark's C10k
// (64 videos × 16 scenes × 10 shots; 8 × 4 × 10 under -short).
func corpusServer(tb testing.TB, opts ...Option) *Server {
	tb.Helper()
	videos, scenes := 64, 16
	if testing.Short() {
		videos, scenes = 8, 4
	}
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

// BenchmarkColdRequest is one GET /query of each MIX6 shape through the
// server's handler, with the result cache off: what one request of the
// serving benchmark's serve_cold_mix costs between the HTTP layers —
// parameter parsing, the per-video fan-out, the store queries and the top-k
// merge. The per-video picture systems are built before the timed loop.
func BenchmarkColdRequest(b *testing.B) { benchRequests(b, corpusServer(b)) }

// BenchmarkWarmRequest is BenchmarkColdRequest against the default result
// cache, warmed: every per-video store query of a request is a cache hit,
// as on the serving benchmark's serve_zipf for its frequent texts.
func BenchmarkWarmRequest(b *testing.B) {
	benchRequests(b, corpusServer(b, WithResultCache(htlvideo.ResultCacheConfig{Capacity: htlvideo.DefaultResultCacheCapacity})))
}

func benchRequests(b *testing.B, srv *Server) {
	h := srv.Handler()
	for _, sh := range coldShapes {
		target := "/query?" + url.Values{"q": {sh.text}, "level": {strconv.Itoa(sh.level)}, "k": {"10"}}.Encode()
		get := func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			if w.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", sh.name, w.Code, w.Body)
			}
		}
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
