// Benchmarks regenerating the paper's evaluation (§4): one benchmark per
// table and figure, a scaling sweep validating the complexity analysis, and
// ablations for the design choices DESIGN.md calls out.
//
// Run everything:     go test -bench=. -benchmem
// One table:          go test -bench=BenchmarkTable5
// Tables 5/6 at the paper's full sizes can take a while on the SQL side —
// exactly the point of the comparison.
package htlvideo

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"htlvideo/internal/casablanca"
	"htlvideo/internal/core"
	"htlvideo/internal/experiments"
	"htlvideo/internal/htl"
	"htlvideo/internal/simlist"
	"htlvideo/internal/workload"
)

// --- Tables 1-2: atomic predicates through the picture substrate ------------

func benchAtomic(b *testing.B, query string) {
	sys, err := casablanca.System()
	if err != nil {
		b.Fatal(err)
	}
	f := htl.MustParse(query)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, err := sys.EvalAtomic(f)
		if err != nil {
			b.Fatal(err)
		}
		_ = core.ProjectMax(tb)
	}
}

func BenchmarkTable1MovingTrain(b *testing.B) { benchAtomic(b, casablanca.MovingTrainQuery) }
func BenchmarkTable2ManWoman(b *testing.B)    { benchAtomic(b, casablanca.ManWomanQuery) }

// --- Table 3: the eventually operator ---------------------------------------

func BenchmarkTable3Eventually(b *testing.B) {
	sys, err := casablanca.System()
	if err != nil {
		b.Fatal(err)
	}
	tb, err := sys.EvalAtomic(htl.MustParse(casablanca.MovingTrainQuery))
	if err != nil {
		b.Fatal(err)
	}
	mt := core.ProjectMax(tb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.EventuallyList(mt)
	}
}

// --- Table 4: Query 1 end to end ---------------------------------------------

func BenchmarkTable4Query1(b *testing.B) {
	sys, err := casablanca.System()
	if err != nil {
		b.Fatal(err)
	}
	f := htl.MustParse(casablanca.Query1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Eval(sys, f, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 2: the until merge on its worked example -------------------------

func BenchmarkFigure2Until(b *testing.B) {
	l1, l2, _ := experiments.Figure2()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.UntilLists(l1, l2, 0.5)
	}
}

// --- Tables 5-6: direct vs SQL on random workloads ---------------------------

// shortOr picks the reduced size under -short (the CI bench smoke runs every
// benchmark once with -short -benchtime=1x) and the full paper-scale size
// otherwise.
func shortOr(short, full int) int {
	if testing.Short() {
		return short
	}
	return full
}

// shortSizes reduces a size sweep to its first entry under -short.
func shortSizes(full ...int) []int {
	if testing.Short() {
		return full[:1]
	}
	return full
}

func perfSizes() []int { return shortSizes(10000, 50000, 100000) }

func benchPerf(b *testing.B, op experiments.Op, sql bool) {
	for _, size := range perfSizes() {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			in := experiments.PrepareInput(op, size, 42)
			rng := rand.New(rand.NewSource(7))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sql {
					// Loading the atomic interval tables is setup, as in the
					// paper's measurement of "executing the sequence of SQL
					// queries".
					b.StopTimer()
					tr, atoms, err := experiments.PrepareSQL(op, in, 0.5)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := tr.Eval(op.Formula(), atoms); err != nil {
						b.Fatal(err)
					}
				} else {
					_, _ = experiments.RunDirect(op, in, 0.5, rng)
				}
			}
		})
	}
}

func BenchmarkTable5AndDirect(b *testing.B) { benchPerf(b, experiments.OpAnd, false) }
func BenchmarkTable5AndSQL(b *testing.B)    { benchPerf(b, experiments.OpAnd, true) }

func BenchmarkTable6UntilDirect(b *testing.B) { benchPerf(b, experiments.OpUntil, false) }
func BenchmarkTable6UntilSQL(b *testing.B)    { benchPerf(b, experiments.OpUntil, true) }

// --- §4.2's "two other more complex formulas" --------------------------------

func BenchmarkComplexFormula1Direct(b *testing.B) { benchComplex(b, experiments.OpComplex1, false) }
func BenchmarkComplexFormula1SQL(b *testing.B)    { benchComplex(b, experiments.OpComplex1, true) }
func BenchmarkComplexFormula2Direct(b *testing.B) { benchComplex(b, experiments.OpComplex2, false) }
func BenchmarkComplexFormula2SQL(b *testing.B)    { benchComplex(b, experiments.OpComplex2, true) }

func benchComplex(b *testing.B, op experiments.Op, sql bool) {
	// The eventually/until translations make the SQL side quadratic-ish
	// (§4's "intermediate relations may become quite large"); a reduced size
	// keeps the sweep practical while preserving the comparison's shape.
	size := shortOr(2000, 10000)
	if op == experiments.OpComplex2 {
		size = shortOr(1000, 4000)
	}
	in := experiments.PrepareInput(op, size, 42)
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sql {
			b.StopTimer()
			tr, atoms, err := experiments.PrepareSQL(op, in, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := tr.Eval(op.Formula(), atoms); err != nil {
				b.Fatal(err)
			}
		} else {
			_, _ = experiments.RunDirect(op, in, 0.5, rng)
		}
	}
}

// --- Scaling: the direct method's linear growth (§4.2 observation) -----------

func BenchmarkScalingDirectUntil(b *testing.B) {
	for _, size := range shortSizes(10000, 20000, 40000, 80000, 160000) {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			in := experiments.PrepareInput(experiments.OpUntil, size, 42)
			g, h := in.Lists["P1"], in.Lists["P2"]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = core.UntilLists(g, h, 0.5)
			}
		})
	}
}

// --- Ablations ----------------------------------------------------------------

// BenchmarkAblationUntilPerID compares the interval-based until against a
// per-id dense evaluation (what the SQL baseline effectively does, minus the
// engine overhead).
func BenchmarkAblationUntilPerID(b *testing.B) {
	n := shortOr(2000, 50000)
	in := experiments.PrepareInput(experiments.OpUntil, n, 42)
	g, h := in.Lists["P1"], in.Lists["P2"]
	b.Run("intervals", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = core.UntilLists(g, h, 0.5)
		}
	})
	b.Run("per-id", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = untilDense(g, h, 0.5, n)
		}
	})
}

// untilDense is the per-id formulation of until, via the backward
// recurrence v(i) = max(h(i), g_ok(i) ? v(i+1) : 0).
func untilDense(g, h simlist.List, tau float64, n int) simlist.List {
	gd := g.Expand(n)
	hd := h.Expand(n)
	out := make([]float64, n)
	prev := 0.0
	for i := n - 1; i >= 0; i-- {
		v := hd[i]
		if g.MaxSim > 0 && gd[i]/g.MaxSim >= tau && prev > v {
			v = prev
		}
		out[i] = v
		prev = v
	}
	return simlist.FromDense(h.MaxSim, out)
}

// BenchmarkAblationMWayMerge compares the event-sweep m-way maximum merge
// against repeated pairwise merging for the existential projection.
func BenchmarkAblationMWayMerge(b *testing.B) {
	const m = 32
	lists := make([]simlist.List, m)
	for i := range lists {
		lists[i] = workload.Generate(workload.DefaultConfig(shortOr(2000, 20000), int64(i)))
	}
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = core.MaxMergeLists(20, lists...)
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = core.MaxMergePairwise(20, lists...)
		}
	})
}

// BenchmarkAblationTopK compares the top-k selection (core.TopK) against a
// full sort.
func BenchmarkAblationTopK(b *testing.B) {
	lists := map[int]simlist.List{}
	for v := 1; v <= 8; v++ {
		lists[v] = workload.Generate(workload.DefaultConfig(shortOr(2000, 50000), int64(v)))
	}
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, _ = core.TopK(context.Background(), core.MapLists(lists), 10)
		}
	})
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = core.TopKBySort(lists, 10)
		}
	})
}

// rankedTopKCorpus builds the 8-video, 100k-shot-per-video corpus the cold
// top-k benchmarks share (reduced under -short).
func rankedTopKCorpus() map[int]simlist.List {
	lists := map[int]simlist.List{}
	for v := 1; v <= 8; v++ {
		lists[v] = workload.Generate(workload.DefaultConfig(shortOr(2000, 100000), int64(v)))
	}
	return lists
}

// heapTopK is the full-materialization baseline of the TopKSpeedup gate:
// every entry of every list lifted into one heap, best at the root, popped
// until k segments are out. Sorting instead (core.TopKBySort) would be slower
// and so loosen the gate.
func heapTopK(lists map[int]simlist.List, k int) []Ranked {
	n := 0
	for _, l := range lists {
		n += len(l.Entries)
	}
	h := make(bestHeap, 0, n)
	for vid, l := range lists {
		for _, e := range l.Entries {
			h = append(h, Ranked{VideoID: vid, Iv: e.Iv.Wide(), Sim: simlist.Sim{Act: e.Act, Max: l.MaxSim}})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	var out []Ranked
	remaining := k
	for remaining > 0 && len(h) > 0 {
		r := h.pop()
		if r.Iv.Len() > remaining {
			r.Iv.End = r.Iv.Beg + remaining - 1
		}
		remaining -= r.Iv.Len()
		out = append(out, r)
	}
	return out
}

// bestHeap is a binary heap of runs with the best-ranked at the root.
type bestHeap []Ranked

func (h *bestHeap) pop() Ranked {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	s.siftDown(0)
	return top
}

func (h bestHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && core.RankedLess(h[l], h[best]) {
			best = l
		}
		if r < n && core.RankedLess(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func benchRankedTopKFull(b *testing.B) {
	lists := rankedTopKCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = heapTopK(lists, 10)
	}
}

func benchRankedTopKPruned(b *testing.B) {
	lists := rankedTopKCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = core.TopK(context.Background(), core.MapLists(lists), 10)
	}
}

// BenchmarkRankedTopKCold measures a cold top 10 over the large corpus: full
// materialization (every entry heapified, heapTopK) against the selection
// (core.TopK: a heap of the runs covering k, most entries rejected by one
// compare with its root). The pair also backs TestWriteBenchPerf's
// TopKSpeedup gate in BENCH_perf.json.
func BenchmarkRankedTopKCold(b *testing.B) {
	b.Run("full", benchRankedTopKFull)
	b.Run("pruned", benchRankedTopKPruned)
}

// BenchmarkAblationSortCost isolates the input-sorting share of the direct
// method's measured time (the paper reports merge-sort numbers).
func BenchmarkAblationSortCost(b *testing.B) {
	in := experiments.PrepareInput(experiments.OpAnd, shortOr(5000, 100000), 42)
	b.Run("presorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = core.AndLists(in.Lists["P1"], in.Lists["P2"])
		}
	})
	b.Run("shuffled", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// RunDirect reshuffles and re-sorts inside the timed section.
			b.StartTimer()
			_, _ = experiments.RunDirect(experiments.OpAnd, in, 0.5, rng)
		}
	})
}

// BenchmarkAblationStorageRead measures the paper-faithful full direct
// measurement: decoding the similarity tables from their binary storage
// format before running the algorithm, against the pure in-memory run.
func BenchmarkAblationStorageRead(b *testing.B) {
	in := experiments.PrepareInput(experiments.OpUntil, shortOr(5000, 100000), 42)
	encoded, err := experiments.EncodeInput(in)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("in-memory", func(b *testing.B) {
		b.ReportAllocs()
		g, h := in.Lists["P1"], in.Lists["P2"]
		for i := 0; i < b.N; i++ {
			_ = core.UntilLists(g, h, 0.5)
		}
	})
	b.Run("from-storage", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := experiments.RunDirectStored(experiments.OpUntil, encoded, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationUntilThreshold sweeps τ: lower thresholds keep more
// g-entries and lengthen the runs the merge walks.
func BenchmarkAblationUntilThreshold(b *testing.B) {
	in := experiments.PrepareInput(experiments.OpUntil, shortOr(5000, 100000), 42)
	g, h := in.Lists["P1"], in.Lists["P2"]
	for _, tau := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("tau=%.1f", tau), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.UntilLists(g, h, tau)
			}
		})
	}
}

// --- Query compilation and caching --------------------------------------------

// BenchmarkCompileCold measures a full parse → classify → plan compilation
// with the plan cache bypassed.
func BenchmarkCompileCold(b *testing.B) {
	s := resilienceStore(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.compile("(M1 until M2) and (eventually M2)", true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheHit measures the compile path once the plan is cached:
// repeated Compile calls should be a single LRU lookup.
func BenchmarkPlanCacheHit(b *testing.B) {
	s := resilienceStore(b, 1)
	if _, err := s.Compile("(M1 until M2) and (eventually M2)"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Compile("(M1 until M2) and (eventually M2)"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepeatedQueryCold is the baseline for the result cache: every
// iteration parses (cache bypassed) and evaluates all videos from scratch.
func BenchmarkRepeatedQueryCold(b *testing.B) {
	s := resilienceStore(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("M1 until M2", WithoutCache()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepeatedQueryWarm repeats the identical query with the result
// cache on; after the single warming evaluation each iteration is a cache
// lookup. The acceptance bar is ≥5× faster than BenchmarkRepeatedQueryCold.
func BenchmarkRepeatedQueryWarm(b *testing.B) {
	s := resilienceStore(b, 8)
	s.EnableResultCache(ResultCacheConfig{Capacity: 16})
	if _, err := s.Query("M1 until M2"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("M1 until M2"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- correctness guard: the ablation per-id formulation must agree -----------

func TestUntilDenseAgrees(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		in := experiments.PrepareInput(experiments.OpUntil, 500, seed)
		g, h := in.Lists["P1"], in.Lists["P2"]
		a := core.UntilLists(g, h, 0.5)
		d := untilDense(g, h, 0.5, 500)
		if !simlist.EqualApprox(a, d, 1e-9) {
			t.Fatalf("seed %d: intervals %v dense %v", seed, a, d)
		}
	}
}
