package shard

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"htlvideo"
	"htlvideo/internal/metadata"
	"htlvideo/internal/server"
	"htlvideo/internal/workload"
)

// corpusFleet serves a corpus shaped like the serving benchmark's C10k,
// videos × scenes × 10 shots, from four shard servers (video id on shard
// id mod 4, as htlvideo.SplitDoc places it) behind a coordinator, and
// returns the coordinator's handler. Each shard evaluates with one worker
// and the coordinator does not hedge, so a request's allocations do not
// depend on scheduling.
func corpusFleet(tb testing.TB, videos, scenes int) http.Handler {
	tb.Helper()
	const shards = 4
	tax := htlvideo.NewTaxonomy()
	for _, e := range workload.CorpusTaxonomy {
		tax.MustAdd(e[0], e[1])
	}
	stores := make([]*htlvideo.Store, shards)
	for i := range stores {
		stores[i] = htlvideo.NewStore(tax, htlvideo.DefaultWeights())
	}
	if err := workload.Corpus(videos, scenes, 10, func(v *metadata.Video) error { return stores[v.ID%shards].Add(v) }); err != nil {
		tb.Fatal(err)
	}
	urls := make([]string, shards)
	for i, st := range stores {
		ts := httptest.NewServer(server.New(st, server.WithRandSeed(int64(i+1)), server.WithParallelism(1)).Handler())
		tb.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return New(urls, WithRandSeed(1), WithHedgeDelay(0)).Handler()
}

// getFleetShape returns a function that sends h one GET /query of the MIX6
// shape sh with k=10, as the serving benchmark does, and fails tb unless it
// answers 200.
func getFleetShape(tb testing.TB, h http.Handler, sh workload.Shape) func() {
	target := "/query?" + url.Values{"q": {sh.Text}, "level": {strconv.Itoa(sh.Level)}, "k": {"10"}}.Encode()
	return func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			tb.Fatalf("%s: status %d: %s", sh.Name, w.Code, w.Body)
		}
	}
}

// BenchmarkFleetColdRequest is one GET /query of each MIX6 shape through a
// coordinator over four shard servers on loopback, the result caches off:
// what one request of the serving benchmark's shard4_cold_mix costs, the
// coordinator's parsing, scatter, shard reads and merge and the four
// shards' requests together (they share the process). C10k's 64 videos ×
// 16 scenes, 8 × 4 under -short; the per-video picture systems are built
// before the timed loop.
func BenchmarkFleetColdRequest(b *testing.B) {
	videos, scenes := 64, 16
	if testing.Short() {
		videos, scenes = 8, 4
	}
	h := corpusFleet(b, videos, scenes)
	for _, sh := range workload.MIX6 {
		get := getFleetShape(b, h, sh)
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

// fleetRequestBudget is what one cold GET /query of each MIX6 shape (k=10,
// the result caches off) allocates through a coordinator over four shard
// servers on loopback (corpusFleet), on the -short corpus, 8 videos × 4
// scenes × 10 shots: the coordinator's parsing, the four shard requests
// (their HTTP exchanges, each shard's parsing, per-video fan-out, store
// queries, top-k and JSON answer), the shard reads and the merge. The
// coordinator samples one request in 64, and the budget's 64 requests hold
// exactly one such; its shards trace that one alone. While each shard reply
// was read by io.ReadAll, re-wrapped for the merge and its parameters
// encoded per attempt, and every parse grew its tokens from nil: type1
// 1 283 / 149.2 KB, until 867 / 87.6 KB, type2 1 104 / 126.8 KB, conj
// 1 151 / 141.7 KB, extconj 912 / 79.4 KB, general 866 / 73.0 KB.
// TestFleetRequestAllocBudget fails at 1.1 times the bytes and 1.5 times
// the allocations (`make budget`): the loopback HTTP exchanges allocate a
// little differently from run to run.
var fleetRequestBudget = map[string]struct{ allocs, bytes float64 }{
	"type1":   {allocs: 994, bytes: 81_500},
	"until":   {allocs: 714, bytes: 65_000},
	"type2":   {allocs: 873, bytes: 74_000},
	"conj":    {allocs: 908, bytes: 75_700},
	"extconj": {allocs: 758, bytes: 65_400},
	"general": {allocs: 727, bytes: 62_700},
}

func TestFleetRequestAllocBudget(t *testing.T) {
	skipUnlessPoolsKeep(t)
	h := corpusFleet(t, 8, 4)
	for _, sh := range workload.MIX6 {
		budget := fleetRequestBudget[sh.Name]
		get := getFleetShape(t, h, sh)
		get() // build the per-video systems
		allocs, bytes := perRun(64, get)
		t.Logf("%s: %.0f allocations, %.0f bytes per request (landed %.0f, %.0f)", sh.Name, allocs, bytes, budget.allocs, budget.bytes)
		if allocs > 1.5*budget.allocs {
			t.Errorf("%s: %.0f allocations per request, budget %.0f", sh.Name, allocs, 1.5*budget.allocs)
		}
		if bytes > 1.1*budget.bytes {
			t.Errorf("%s: %.0f bytes per request, budget %.0f", sh.Name, bytes, 1.1*budget.bytes)
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
// purpose: the pooled buffers are then regrown at random and the count
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
