package core_test

import (
	"testing"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
)

// Memoized tables are immutable. An evaluation hands one table to several
// parents, and `next`/`eventually` hand their operand's key columns on to
// their own table, so an operator that wrote a column it did not allocate
// would change a table some other node still reads. For each conjunctive
// shape of the serving benchmark's MIX6 over its corpus at 8 × 4 × 10 (the
// root package's mix6Corpus), every subformula's table is first evaluated
// alone; then the whole plan runs on one evaluator — on an arena sized by an
// evaluation before, as the serving path's are — the in-place projection of
// the root included, and every table in its memo must print as the lone
// evaluation did — all but the matrix's own, which the projection consumes.
func TestMemoTablesImmutable(t *testing.T) {
	atScene, atShot := corpusSystems(t, 8, 4, 10, nil)
	opts := core.DefaultOptions()
	for _, sh := range mix6Conjunctive {
		p := core.CompilePlan(htl.MustParse(sh.text))
		matrix := p.Root
		for {
			if _, ok := matrix.F.(htl.Exists); !ok {
				break
			}
			matrix = matrix.Kids[0]
		}
		// The nodes that evaluate over the video's own sequence.
		var nodes []*core.PNode
		var walk func(n *core.PNode)
		walk = func(n *core.PNode) {
			nodes = append(nodes, n)
			if _, ok := n.F.(htl.AtLevel); ok || n.NonTemporal {
				return
			}
			for _, k := range n.Kids {
				walk(k)
			}
		}
		walk(matrix)
		sys := atShot
		if sh.scene {
			sys = atScene
		}
		for vi, s := range sys {
			alone := map[*core.PNode]string{}
			for _, n := range nodes {
				tb, err := core.EvalTable(s, n.F, opts)
				if err != nil {
					t.Fatal(err)
				}
				alone[n] = tb.String()
			}
			list, memo, err := core.EvalPlanMemo(s, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := list.Validate(); err != nil || cap(list.Entries) != len(list.Entries) {
				t.Errorf("%q video %d: result %v (cap %d): %v", sh.text, vi+1, list, cap(list.Entries), err)
			}
			for _, n := range nodes {
				if n == matrix || memo[n.ID] == nil { // consumed, or skipped by a short-circuit
					continue
				}
				if err := memo[n.ID].Validate(); err != nil {
					t.Errorf("%q video %d: table of %s: %v", sh.text, vi+1, n.Key, err)
				}
				if got := memo[n.ID].String(); got != alone[n] {
					t.Errorf("%q video %d: the table of %s changed after it was memoized:\ngot  %swant %s", sh.text, vi+1, n.Key, got, alone[n])
				}
			}
		}
	}
}
