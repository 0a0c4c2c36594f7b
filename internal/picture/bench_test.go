package picture

import (
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/simlist"
)

// The layer's own benchmarks: one 160-shot corpus-shaped sequence (one video
// of the serving benchmark's C10k), the atomic units MIX6 decomposes into.

var (
	sinkTable *simlist.Table
	sinkSim   simlist.Sim
	sinkVT    *core.ValueTable
)

func BenchmarkEvalAtomic(b *testing.B) {
	sys := corpusSystem(b, 1, 16, 10)
	for _, bc := range []struct{ name, unit string }{
		{"tag", "M1"},
		{"manwoman", "exists x, y . present(x) and type(x) = 'man' and present(y) and type(y) = 'woman'"},
		{"movingtrain", "exists t . present(t) and type(t) = 'train' and moving(t)"},
		// The conj shape's inner unit: a free object and a free attribute
		// variable (peeled out of its binders).
		{"freeattr", "[h <- hh] exists z . present(z) and height(z) > h"},
	} {
		f := htl.MustParse(bc.unit)
		if bc.name == "freeattr" {
			f = f.(htl.Freeze).F.(htl.Exists).F
		}
		n := atom(f)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb, err := sys.EvalAtomicNode(n, nil)
				if err != nil {
					b.Fatal(err)
				}
				sinkTable = tb
			}
		})
	}
}

// BenchmarkScoreAtomicAt is the reference evaluator's access pattern: one
// node scored segment by segment.
func BenchmarkScoreAtomicAt(b *testing.B) {
	sys := corpusSystem(b, 1, 16, 10)
	n := atom(htl.MustParse("M1"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for id := 1; id <= sys.Len(); id++ {
			sim, err := sys.ScoreAtomicAt(n, id, Env{})
			if err != nil {
				b.Fatal(err)
			}
			sinkSim = sim
		}
	}
}

// BenchmarkNewSystem builds what the serving warm-up builds for one video of
// the corpus: its shot-level and scene-level system and the shot-level child
// system under each of its 16 scenes.
func BenchmarkNewSystem(b *testing.B) {
	v := corpusVideo(1, 16, 10)
	tax := corpusTaxonomy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSystem(v, 3, tax, DefaultWeights()); err != nil {
			b.Fatal(err)
		}
		scenes, err := NewSystem(v, 2, tax, DefaultWeights())
		if err != nil {
			b.Fatal(err)
		}
		for id := 1; id <= scenes.Len(); id++ {
			if _, err := scenes.ChildSource(id, htl.LevelRef{NextLevel: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkValueTable(b *testing.B) {
	sys := corpusSystem(b, 1, 16, 10)
	q := htl.AttrFn{Attr: "height", Of: "z"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vt, err := sys.ValueTable(q, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkVT = vt
	}
}

// TestEvalAtomicAllocationCeiling pins the shape of the scan: a table costs
// its output (the table, its rows, one list — 3 allocations here) plus a
// small constant, however many segments are candidates — not a map per
// assignment and a string per alternative, as the tree-walking interpreter
// did (85 allocations over 160 shots for this formula, ≈ 5 per candidate).
// The ceiling leaves room for a scratch buffer regrown after the pool dropped
// it, which the race detector's build does on purpose.
func TestEvalAtomicAllocationCeiling(t *testing.T) {
	n := atom(htl.MustParse("M1"))
	var perSize []float64
	for _, scenes := range []int{16, 160} {
		sys := corpusSystem(t, 1, scenes, 10)
		tb, err := sys.EvalAtomicNode(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(tb.List(0).Entries); got < scenes/2 {
			t.Fatalf("%d scenes: only %d entries; the corpus should tag about one shot per scene", scenes, got)
		}
		perSize = append(perSize, testing.AllocsPerRun(50, func() {
			sinkTable, _ = sys.EvalAtomicNode(n, nil)
		}))
	}
	const ceiling = 20
	if perSize[0] > ceiling || perSize[1] > ceiling {
		t.Fatalf("EvalAtomicNode(M1) allocates %.1f times over 160 shots and %.1f over 1600; want at most %d at any length", perSize[0], perSize[1], ceiling)
	}
}
