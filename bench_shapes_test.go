package htlvideo

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"htlvideo/internal/workload"
)

// The six query shapes of the serving benchmark's MIX6 (bench/queries.go), at
// the Store API with every cache bypassed, over a corpus shaped like the
// benchmark's C10k (bench/corpus.go: 64 videos × 16 scenes × 10 shots). One
// iteration is one cold query ranked to the top 10 — the engine work behind
// one request of the serve_cold_mix workload, without the HTTP layers; this
// is where EXPERIMENTS.md's per-shape table comes from.

func mix6Corpus(tb testing.TB, videos, scenes, shots int) *Store {
	tb.Helper()
	tax := NewTaxonomy()
	for _, e := range workload.CorpusTaxonomy {
		tax.MustAdd(e[0], e[1])
	}
	st := NewStore(tax, DefaultWeights())
	rng := rand.New(rand.NewSource(1))
	for id := 1; id <= videos; id++ {
		if err := st.Add(workload.CorpusVideo(rng, id, scenes, shots)); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

func BenchmarkStoreColdShape(b *testing.B) {
	videos, scenes := 64, 16
	if testing.Short() {
		videos, scenes = 8, 4
	}
	st := mix6Corpus(b, videos, scenes, 10)
	for _, sh := range mix6Shapes {
		b.Run(sh.name, func(b *testing.B) {
			// Build the per-video systems outside the timed loop, as the
			// serving benchmark's warm-up does.
			if _, err := st.Query(sh.text, AtLevel(sh.level), WithoutCache()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := st.QueryCtx(context.Background(), sh.text, AtLevel(sh.level), WithUntilThreshold(0.5), WithoutCache())
				if err != nil {
					b.Fatal(err)
				}
				if top := res.TopK(10); len(top) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// coldShapeAllocs is what one cold query of a table-heavy MIX6 shape over
// mix6Corpus(8, 4, 10) allocated, in allocations, when the §3 kernel was
// given its per-table blocks (PR 23; the slice-per-list kernel before it:
// conj 8 034, type2 1 975). TestColdShapeAllocBudget fails at one and a half
// times these — a count, so it holds on any machine, and the one guard of that
// change that needs no benchmark harness.
var coldShapeAllocs = map[string]float64{"conj": 862, "type2": 591}

func TestColdShapeAllocBudget(t *testing.T) {
	// The race detector's build makes sync.Pool drop a quarter of all puts on
	// purpose; the picture layer's machine and the sweep's buffer are then
	// regrown at random and the count means nothing.
	pool := sync.Pool{New: func() any { return new(int) }}
	for i := 0; i < 64; i++ {
		x := pool.Get()
		pool.Put(x)
		if pool.Get() != x {
			t.Skip("sync.Pool does not return what was just put (race detector build): allocation counts are not reproducible")
		}
		pool.Put(x)
	}
	st := mix6Corpus(t, 8, 4, 10)
	for _, sh := range mix6Shapes {
		landed, ok := coldShapeAllocs[sh.name]
		if !ok {
			continue
		}
		query := func() {
			// One worker: the count must not depend on how many the machine has.
			if _, err := st.Query(sh.text, AtLevel(sh.level), WithoutCache(), WithParallelism(1)); err != nil {
				t.Fatal(err)
			}
		}
		query() // build the per-video systems
		got := testing.AllocsPerRun(20, query)
		t.Logf("%s: %.0f allocations per cold query (landed %.0f)", sh.name, got, landed)
		if got > 1.5*landed {
			t.Errorf("%s: %.0f allocations per cold query, budget %.0f (1.5 × the %.0f the kernel rewrite landed)", sh.name, got, 1.5*landed, landed)
		}
	}
}
