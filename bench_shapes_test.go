package htlvideo

import (
	"context"
	"fmt"
	"runtime"
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
	if err := workload.Corpus(videos, scenes, shots, st.Add); err != nil {
		tb.Fatal(err)
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
		b.Run(sh.Name, func(b *testing.B) {
			// Build the per-video systems outside the timed loop, as the
			// serving benchmark's warm-up does.
			if _, err := st.Query(sh.Text, AtLevel(sh.Level), WithoutCache()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := st.QueryCtx(context.Background(), sh.Text, AtLevel(sh.Level), WithUntilThreshold(0.5), WithoutCache())
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

// BenchmarkStoreColdCycle is one cold MIX6 cycle per iteration: the twelve
// queries of the serving mix in its weights (3/2/2/2/2/1), every cache
// bypassed, evaluated WithTopK(10) and ranked to the top 10, as the server
// serves them. Its memory profile is EXPERIMENTS.md's "where the bytes went"
// table, by operator (`make bench-bytes`).
func BenchmarkStoreColdCycle(b *testing.B) {
	videos, scenes := 64, 16
	if testing.Short() {
		videos, scenes = 8, 4
	}
	st := mix6Corpus(b, videos, scenes, 10)
	for _, sh := range mix6Shapes {
		if _, err := st.Query(sh.Text, AtLevel(sh.Level), WithoutCache()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sh := range mix6Shapes {
			for range sh.Weight {
				res, err := st.QueryCtx(context.Background(), sh.Text, AtLevel(sh.Level), WithUntilThreshold(0.5), WithTopK(10), WithoutCache())
				if err != nil {
					b.Fatal(err)
				}
				if top := res.TopK(10); len(top) == 0 {
					b.Fatal("no results")
				}
			}
		}
	}
}

// coldShapeBudget is what one cold query of a MIX6 shape over
// mix6Corpus(8, 4, 10) allocates: allocations, and bytes
// (runtime.MemStats.TotalAlloc) — the most of ten runs. conj and type2 are the
// kernel's once the parser built each query's tree once, resolving its
// variables where it read them; their runs read conj 265 allocations /
// 18.4–26.3 KB and type2 224 / 16.5–16.7 KB, depending on how often a worker
// found its P without a grown arena, and general 107 / 9.4 KB. While the
// parser built a second tree to resolve them: conj 278 / 18.8–25.3 KB, type2
// 237 / 16.9–17.4 KB, general 113 / 9.6 KB. Once a query stopped paying for a
// plan profile, trace tag maps and registry lookups it did not need, their
// runs read conj 31–38 KB and type2 26–29 KB. Before it, with every table of
// an evaluation carved from a pooled arena: conj 435 allocations / 48.8 KB,
// type2 393 / 38 KB; with tables allocated
// per evaluation and 16-byte entries: conj 763 allocations / 168 KB, type2
// 537 / 71 KB; with 24-byte entries in columnar tables: conj 763 / 195 KB,
// type2 537 / 85 KB; with a block per table: conj 862 / 345 KB, type2 591 /
// 133 KB; with a slice per list: conj 8 034, type2 1 975 allocations
// (EXPERIMENTS.md has each step). general is the reference evaluator's, once
// its memo rows, maxSim row, memo header and dense row came from the pooled
// arena and the auto engine stopped trying core first: 121 allocations /
// 10.2–10.6 KB, from 193–196 / 24.4 KB. TestColdShapeAllocBudget fails at one
// and a half times the allocations and 1.1 times the bytes — measures that
// hold on any machine, and a byte ceiling tables allocated per evaluation do
// not fit under — the guard of these changes that needs no benchmark harness
// (`make budget`).
//
// The "k=10" rows are the same queries evaluated WithTopK(10), as the server
// runs them: each video copies out only its best runs covering ten segments.
// Their runs read type2 224 allocations / 14.4–14.6 KB, conj 265 /
// 16.3–23.6 KB and general 107 / 9.0 KB (with a second tree in the parser:
// type2 237, conj 278, general 113); earlier, type2 249 / 17.7–18.1 KB, conj
// 291–352 / 22–31.5 KB and general 121 / 9.8–10.7 KB. The two conj rows keep
// their byte figures from then: how often a worker meets an arena it must
// grow moves them by a third from run to run, more under load, and a ceiling
// at the most of ten quiet runs failed a full-suite run.
//
// Each budgeted query is traced (WithTraceID), as every direct query was when
// these figures landed; the store now samples one in 64 plain ones, and a
// budget that met the sampled query in some rows only would move with the
// rows' order.
var coldShapeBudget = map[string]struct{ allocs, bytes float64 }{
	"conj":         {allocs: 265, bytes: 38_000},
	"type2":        {allocs: 224, bytes: 16_700},
	"general":      {allocs: 107, bytes: 9_450},
	"conj k=10":    {allocs: 265, bytes: 32_000},
	"type2 k=10":   {allocs: 224, bytes: 14_600},
	"general k=10": {allocs: 107, bytes: 9_000},
}

// coldShapeRow is one budgeted query: a MIX6 shape, evaluated WithTopK(k)
// (0: full lists), under its coldShapeBudget name.
type coldShapeRow struct {
	name, text string
	level, k   int
	landed     struct{ allocs, bytes float64 }
}

// coldShapeRows lists the budgeted rows in MIX6 order, full lists first.
func coldShapeRows() []coldShapeRow {
	var rows []coldShapeRow
	for _, k := range []int{0, 10} {
		for _, sh := range mix6Shapes {
			name := sh.Name
			if k > 0 {
				name = fmt.Sprintf("%s k=%d", sh.Name, k)
			}
			if landed, ok := coldShapeBudget[name]; ok {
				rows = append(rows, coldShapeRow{name: name, text: sh.Text, level: sh.Level, k: k, landed: landed})
			}
		}
	}
	return rows
}

// skipUnlessPoolsKeep skips an allocation-count test under the race
// detector, whose build makes sync.Pool drop a quarter of all puts on purpose:
// the picture layer's machine, the sweep's buffer and the evaluation arenas
// are then regrown at random and the count means nothing.
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

func TestColdShapeAllocBudget(t *testing.T) {
	skipUnlessPoolsKeep(t)
	st := mix6Corpus(t, 8, 4, 10)
	// A traced query that enters the slow log pays for a snapshot of its
	// trace. The log keeps the slowest 32 queries the store has seen, so how
	// many of a row's queries enter depends on the rows before it and on
	// timing: conj k=10 read 22.6–29.1 KB as 2–14 of its 20 measured queries
	// entered. The budget leaves the log out, as TestStoreQueryOverheadBudget
	// does.
	st.obs.slow = nil
	for _, row := range coldShapeRows() {
		landed := row.landed
		// One worker: the count must not depend on how many the machine has.
		opts := []QueryOption{AtLevel(row.level), WithoutCache(), WithParallelism(1), WithTraceID(budgetTraceID)}
		if row.k > 0 {
			opts = append(opts, WithTopK(row.k))
		}
		query := func() {
			if _, err := st.Query(row.text, opts...); err != nil {
				t.Fatal(err)
			}
		}
		query() // build the per-video systems
		allocs := testing.AllocsPerRun(20, query)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			query()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocations, %.0f bytes per cold query (landed %.0f, %.0f)", row.name, allocs, bytes, landed.allocs, landed.bytes)
		if allocs > 1.5*landed.allocs {
			t.Errorf("%s: %.0f allocations per cold query, budget %.0f (1.5 × the %.0f landed)", row.name, allocs, 1.5*landed.allocs, landed.allocs)
		}
		if bytes > 1.1*landed.bytes {
			t.Errorf("%s: %.0f bytes per cold query, budget %.0f (1.1 × the %.0f landed)", row.name, bytes, 1.1*landed.bytes, landed.bytes)
		}
	}
}

// A query on one video costs the same whatever else the store holds: the
// server asks for every video by itself (BoundQuery.QueryVideoCtx), so a
// per-query cost in the store's size is paid once per video per request.
func TestVideoQueryCostIndependentOfStoreSize(t *testing.T) {
	skipUnlessPoolsKeep(t)
	allocs := func(videos int) float64 {
		st := mix6Corpus(t, videos, 4, 10) // video 1 is the same in both
		bq := bind(t, st, "M1 until M2", WithoutCache())
		query := func() {
			if _, err := bq.QueryVideoCtx(context.Background(), 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		query() // build the video's system
		return testing.AllocsPerRun(20, query)
	}
	if one, many := allocs(1), allocs(64); one != many {
		t.Errorf("one BoundQuery.QueryVideoCtx call allocates %.0f times on a 1-video store and %.0f on a 64-video store", one, many)
	}
}
