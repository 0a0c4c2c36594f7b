package htlvideo

import (
	"context"
	"math/rand"
	"testing"

	"htlvideo/internal/casablanca"
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
	for _, sh := range []struct {
		name, text string
		level      int
	}{
		{"type1", casablanca.Query1, 3},
		{"until", "M1 until M2", 3},
		{"type2", "exists z . (present(z) and type(z) = 'airplane') and eventually (present(z) and moving(z))", 3},
		{"conj", "exists z . (present(z) and type(z) = 'airplane') and [h <- height(z)] eventually (present(z) and height(z) > h)", 3},
		{"extconj", "outdoor = 1 and at-shot-level(M1 until M2)", 2},
		{"general", "not (M1 until M2)", 3},
	} {
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
