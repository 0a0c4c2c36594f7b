package core

import (
	"slices"
	"testing"

	"htlvideo/internal/htl"
	"htlvideo/internal/simlist"
)

// costSrc is a source with non-trivial lists for the closed atoms A and B
// and, for `brightness > h`, the range-partitioned rows an atom with a free
// attribute variable emits; without names every atom is empty.
func costSrc(without ...string) stubSource {
	cmp := simlist.NewTable(nil, []string{"h"}, 2)
	cmp.MustAddRow(nil, []simlist.Range{simlist.IntBelow(7)}, simlist.NewList(2, entry(2, 2, 2)))
	cmp.MustAddRow(nil, []simlist.Range{simlist.IntAtLeast(7)}, simlist.Empty(2))
	src := stubSource{
		n:   10,
		max: map[string]float64{"A": 4, "B": 6, "brightness > h": 2},
		tables: map[string]*simlist.Table{
			"A":              closedTable(4, entry(1, 3, 2), entry(5, 6, 4)),
			"B":              closedTable(6, entry(2, 4, 3), entry(6, 8, 6)),
			"brightness > h": cmp,
		},
	}
	for _, name := range without {
		delete(src.tables, name) // the stub then yields a zero-row table
	}
	return src
}

// tablesEqual compares the parts of a similarity table that downstream
// consumers read: row contents, maximum similarity, and column names looked
// up by name.
func tablesEqual(a, b *simlist.Table) bool {
	if a.MaxSim != b.MaxSim || a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if !slices.Equal(a.Bindings(i), b.Bindings(i)) || !slices.Equal(a.Ranges(i), b.Ranges(i)) ||
			!slices.Equal(a.List(i).Entries, b.List(i).Entries) {
			return false
		}
	}
	return true
}

// skipCase is one input of the two short-circuit tests: a binary formula
// (optionally under a freeze that binds its attribute variable), the atoms
// that are empty, and which operand (left, right) the profile must then
// show skipped; every other operand must have been visited.
type skipCase struct {
	name    string
	query   string
	empty   []string
	skipped [2]bool
	// markers: the full combine keeps range-constrained rows with empty
	// lists, which a skip would have dropped.
	markers bool
}

// runSkipCase evaluates the case's binary node under a profile and holds the
// result to combine — the full CombineTables — of its separately evaluated
// operands.
func runSkipCase(t *testing.T, c skipCase, opts Options, combine func(t1, t2 *simlist.Table) *simlist.Table) {
	t.Helper()
	src := costSrc(c.empty...)
	p := CompilePlan(mustParse(t, c.query))
	n := p.Root
	if _, ok := n.F.(htl.Freeze); ok {
		n = n.Kids[0]
	}
	t1, err := newPlanEval(src, opts, p.Nodes, nil).eval(t.Context(), n.Kids[0])
	if err != nil {
		t.Fatal(err)
	}
	t2, err := newPlanEval(src, opts, p.Nodes, nil).eval(t.Context(), n.Kids[1])
	if err != nil {
		t.Fatal(err)
	}
	want := combine(t1, t2)

	prof := NewPlanProfile(p, false)
	opts.Prof = prof
	got, err := newPlanEval(src, opts, p.Nodes, nil).eval(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	if !tablesEqual(got, want) {
		t.Fatalf("result diverges from the full combine:\ngot  %+v\nwant %+v", got, want)
	}
	if c.markers && want.Len() == 0 {
		t.Fatal("full combine kept no coverage markers; the case does not exercise the guard")
	}
	for i, kid := range n.Kids {
		st := prof.Stats(kid)
		if c.skipped[i] && (st.Visits != 0 || st.Skipped != 1) {
			t.Fatalf("operand %d stats = %+v, want skipped=1 visits=0", i, st)
		}
		if !c.skipped[i] && (st.Visits != 1 || st.Skipped != 0) {
			t.Fatalf("operand %d stats = %+v, want visits=1 skipped=0", i, st)
		}
	}
}

// An empty until gate short-circuits the left subtree; the short-circuit's
// table must equal the one the full combine would have produced, and the
// profile must account the skipped subtree as skipped, not unvisited. A left
// side with an attribute variable is never skipped: its range-constrained
// rows survive the outer join as coverage markers.
func TestUntilEmptyGateSkip(t *testing.T) {
	for _, c := range []skipCase{
		{name: "empty-gate", query: "A until B", empty: []string{"B"}, skipped: [2]bool{true, false}},
		{name: "empty-left", query: "A until B", empty: []string{"A"}},
		{name: "left-has-attribute-variable", query: "[h <- brightness] (brightness > h until B)",
			empty: []string{"B"}, markers: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := DefaultOptions()
			runSkipCase(t, c, opts, func(tg, th *simlist.Table) *simlist.Table {
				return CombineTables(tg, th, func(l1, l2 simlist.List) simlist.List {
					return UntilLists(l1, l2, opts.UntilThreshold)
				}, th.MaxSim)
			})
		})
	}
}

// An empty conjunct short-circuits nothing: the sum keeps the other side's
// one-sided entries, so both sides evaluate whichever is empty.
func TestAndEmptySideSkip(t *testing.T) {
	// The conjuncts must be temporal: a fully non-temporal conjunction is an
	// atomic unit the picture layer scores whole, bypassing the And branch.
	const closed = "(eventually A) and (eventually B)"
	for _, c := range []skipCase{
		{name: "sum-empty-left", query: closed, empty: []string{"A"}},
		{name: "sum-empty-right", query: closed, empty: []string{"B"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			runSkipCase(t, c, DefaultOptions(), func(t1, t2 *simlist.Table) *simlist.Table {
				return CombineTables(t1, t2, AndLists, t1.MaxSim+t2.MaxSim)
			})
		})
	}
}
