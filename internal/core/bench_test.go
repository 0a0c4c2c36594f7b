package core_test

import (
	"math/rand"
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/picture"
	"htlvideo/internal/simlist"
	"htlvideo/internal/workload"
)

// The table operators over what one video of the serving benchmark's corpus
// (C10k: 16 scenes × 10 shots, bench/corpus.go) gives MIX6's two table-heavy
// shapes to work on. BenchmarkStoreColdShape in the root package measures the
// same operators per query of 64 videos; these say which of them moved.

const (
	benchType2 = "exists z . (present(z) and type(z) = 'airplane') and eventually (present(z) and moving(z))"
	benchConj  = "exists z . (present(z) and type(z) = 'airplane') and [h <- height(z)] eventually (present(z) and height(z) > h)"

	// Subformulas of the two, by their canonical text.
	benchAirplane = "present(z) and type(z) = 'airplane'"
	benchMoving   = "eventually (present(z) and moving(z))"
	benchHigher   = "eventually (present(z) and height(z) > h)"
	benchFrozen   = "[h <- height(z)] " + benchHigher
)

var benchSink any

// findNode returns the node under n whose canonical text is key, or nil.
func findNode(n *core.PNode, key string) *core.PNode {
	if n.Key == key {
		return n
	}
	for _, k := range n.Kids {
		if m := findNode(k, key); m != nil {
			return m
		}
	}
	return nil
}

// benchTables evaluates subformulas of query over the corpus video's shots.
func benchTables(b *testing.B, query string, subformulas ...string) (*picture.System, []*simlist.Table) {
	b.Helper()
	tax := picture.NewTaxonomy()
	for _, e := range workload.CorpusTaxonomy {
		tax.MustAdd(e[0], e[1])
	}
	scenes := 16
	if testing.Short() {
		scenes = 4
	}
	sys, err := picture.NewSystem(workload.CorpusVideo(rand.New(rand.NewSource(1)), 1, scenes, 10), 3, tax, picture.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	plan := core.CompilePlan(htl.MustParse(query))
	tables := make([]*simlist.Table, len(subformulas))
	for i, key := range subformulas {
		n := findNode(plan.Root, key)
		if n == nil {
			b.Fatalf("%q is no subformula of %q", key, query)
		}
		if tables[i], err = core.EvalTable(sys, n.F, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	return sys, tables
}

func BenchmarkFreezeTable(b *testing.B) {
	sys, ts := benchTables(b, benchConj, benchHigher)
	vt, err := sys.ValueTable(htl.AttrFn{Attr: "height", Of: "z"}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = core.FreezeTable(ts[0], "h", vt, "z")
	}
}

func BenchmarkCombineTables(b *testing.B) {
	_, type2 := benchTables(b, benchType2, benchAirplane, benchMoving)
	_, conj := benchTables(b, benchConj, benchAirplane, benchFrozen)
	for _, c := range []struct {
		name string
		ts   []*simlist.Table
	}{{"type2", type2}, {"conj", conj}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = core.JoinAnd(c.ts[0], c.ts[1])
			}
		})
	}
}

// benchEach runs op over one table of each shape.
func benchEach(b *testing.B, type2Key, conjKey string, op func(*simlist.Table) any) {
	_, type2 := benchTables(b, benchType2, type2Key)
	_, conj := benchTables(b, benchConj, conjKey)
	for _, c := range []struct {
		name string
		t    *simlist.Table
	}{{"type2", type2[0]}, {"conj", conj[0]}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = op(c.t)
			}
		})
	}
}

func BenchmarkMapRowsEventually(b *testing.B) {
	benchEach(b, "present(z) and moving(z)", "present(z) and height(z) > h",
		func(t *simlist.Table) any { return core.MapEventually(t) })
}

func BenchmarkProjectMax(b *testing.B) {
	benchEach(b, benchAirplane+" and "+benchMoving, benchAirplane+" and "+benchFrozen,
		func(t *simlist.Table) any { return core.ProjectMax(t) })
}
