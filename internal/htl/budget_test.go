package htl_test

import (
	"runtime"
	"sync"
	"testing"

	"htlvideo/internal/htl"
	"htlvideo/internal/workload"
)

// BenchmarkParse parses each MIX6 text: what every /query pays once per
// server and five times per fleet request, and every plan-cache miss once.
func BenchmarkParse(b *testing.B) {
	for _, sh := range workload.MIX6 {
		b.Run(sh.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := htl.Parse(sh.Text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parseBudget is what one Parse of each MIX6 text allocates: the tree, built
// once with each variable resolved where the parser reads it. While Parse
// built the tree unresolved and a second pass rebuilt it with each
// variable's sort, cloning its scope at every binder: type1 58 allocations /
// 1 736 B, until 8 / 304, type2 30 / 872, conj 34 / 1 072, extconj 16 / 616,
// general 10 / 336. TestParseAllocBudget fails at 1.1 times the bytes and 1.5
// times the allocations (`make budget`), as the other budgets do; a second
// tree brought back fails it.
var parseBudget = map[string]struct{ allocs, bytes float64 }{
	"type1":   {allocs: 35, bytes: 1_008},
	"until":   {allocs: 3, bytes: 128},
	"type2":   {allocs: 17, bytes: 472},
	"conj":    {allocs: 21, bytes: 640},
	"extconj": {allocs: 7, bytes: 288},
	"general": {allocs: 4, bytes: 144},
}

func TestParseAllocBudget(t *testing.T) {
	skipUnlessPoolsKeep(t)
	for _, sh := range workload.MIX6 {
		budget := parseBudget[sh.Name]
		allocs, bytes := perRun(64, func() {
			if _, err := htl.Parse(sh.Text); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations, %.0f bytes per parse (landed %.0f, %.0f)", sh.Name, allocs, bytes, budget.allocs, budget.bytes)
		if allocs > 1.5*budget.allocs {
			t.Errorf("%s: %.0f allocations per parse, budget %.0f", sh.Name, allocs, 1.5*budget.allocs)
		}
		if bytes > 1.1*budget.bytes {
			t.Errorf("%s: %.0f bytes per parse, budget %.0f", sh.Name, bytes, 1.1*budget.bytes)
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
// purpose: Parse's token buffers are then regrown at random and the count
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
