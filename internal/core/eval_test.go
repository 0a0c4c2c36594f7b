package core

import (
	"strings"
	"testing"

	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

func mustParse(t *testing.T, q string) htl.Formula {
	t.Helper()
	f, err := htl.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return f
}

// stubSource is a hand-scripted Source for evaluator unit tests: atomic
// tables, value tables and child sequences are looked up by formula text.
type stubSource struct {
	n      int
	max    map[string]float64
	tables map[string]*simlist.Table
	values map[string]*ValueTable
	childs map[int]Source
}

func (s stubSource) Len() int { return s.n }

func (s stubSource) AtomicMaxSim(f htl.Formula) float64 {
	if m, ok := s.max[f.String()]; ok {
		return m
	}
	switch n := f.(type) {
	case htl.And:
		return s.AtomicMaxSim(n.L) + s.AtomicMaxSim(n.R)
	case htl.Not:
		return s.AtomicMaxSim(n.F)
	case htl.Exists:
		return s.AtomicMaxSim(n.F)
	case htl.Freeze:
		return s.AtomicMaxSim(n.F)
	default:
		return 1
	}
}

func (s stubSource) EvalAtomicNode(n *PNode, _ *Arena) (*simlist.Table, error) {
	if t, ok := s.tables[n.Key]; ok {
		return t, nil
	}
	return simlist.NewTable(nil, nil, s.AtomicMaxSim(n.F)), nil
}

// ValueTable hands out the scripted table, held to the contract a real source
// keeps (rows ordered by binding): a test that scripts one FreezeTable would
// misread fails here instead.
func (s stubSource) ValueTable(q htl.AttrFn, _ *Arena) (*ValueTable, error) {
	if vt, ok := s.values[q.String()]; ok {
		return vt, vt.Validate()
	}
	return &ValueTable{Var: q.Of}, nil
}

func (s stubSource) ChildSource(id int, ref htl.LevelRef) (Source, error) {
	if c, ok := s.childs[id]; ok {
		return c, nil
	}
	return nil, nil
}

func closedTable(max float64, es ...simlist.Entry) *simlist.Table {
	t := simlist.NewTable(nil, nil, max)
	t.MustAddRow(nil, nil, simlist.NewList(max, es...))
	return t
}

func TestEvalType1Composition(t *testing.T) {
	src := stubSource{
		n:   10,
		max: map[string]float64{"A": 4, "B": 6},
		tables: map[string]*simlist.Table{
			"A": closedTable(4, entry(1, 3, 4)),
			"B": closedTable(6, entry(3, 5, 6)),
		},
	}
	got, err := Eval(src, mustParse(t, "A and next B"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// next B covers 2-4@6; A covers 1-3@4.
	want := simlist.NewList(10, entry(1, 1, 4), entry(2, 3, 10), entry(4, 4, 6))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestEvalType2BindingsFlow(t *testing.T) {
	// P(x) strong for object 1 early, Q(x) strong for object 1 late; object
	// 2 only has P.
	p := simlist.NewTable([]string{"x"}, nil, 4)
	p.MustAddRow([]simlist.ObjectID{1}, nil, simlist.NewList(4, entry(1, 2, 4)))
	p.MustAddRow([]simlist.ObjectID{2}, nil, simlist.NewList(4, entry(1, 2, 2)))
	q := simlist.NewTable([]string{"x"}, nil, 6)
	q.MustAddRow([]simlist.ObjectID{1}, nil, simlist.NewList(6, entry(4, 4, 6)))

	src := stubSource{
		n:   5,
		max: map[string]float64{"P(x)": 4, "Q(x)": 6},
		tables: map[string]*simlist.Table{
			"P(x)": p,
			"Q(x)": q,
		},
	}
	got, err := Eval(src, mustParse(t, "exists x . P(x) and eventually Q(x)"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// x=1: P 4 @1-2 plus eventually Q 6 @1-4 => 10 @1-2, 6 @3-4.
	// x=2: only P 2 @1-2 (no Q for x=2). Projection takes the max.
	want := simlist.NewList(10, entry(1, 2, 10), entry(3, 4, 6))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestEvalFreezeAgainstValueTable(t *testing.T) {
	// Operand table keyed by the h-range rows an atomic would emit for
	// `brightness > h`, and a closed atom A.
	cmp := simlist.NewTable(nil, []string{"h"}, 2)
	cmp.MustAddRow(nil, []simlist.Range{simlist.IntBelow(7)}, simlist.NewList(2, entry(2, 2, 2)))
	cmp.MustAddRow(nil, []simlist.Range{simlist.IntAtLeast(7)}, simlist.Empty(2))

	src := stubSource{
		n:   3,
		max: map[string]float64{"brightness > h": 2, "A": 4},
		tables: map[string]*simlist.Table{
			"brightness > h": cmp,
			"A":              closedTable(4, entry(1, 3, 4)),
		},
		values: map[string]*ValueTable{
			"brightness": {Rows: []ValueRow{
				{Value: AttrValue{IsInt: true, Int: 3}, Ivs: []interval.I{{Beg: 1, End: 1}}},
				{Value: AttrValue{IsInt: true, Int: 9}, Ivs: []interval.I{{Beg: 2, End: 3}}},
			}},
		},
	}
	got, err := Eval(src, mustParse(t, "[h <- brightness] (A and eventually brightness > h)"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// At id 1: h=3; eventually (brightness>h) sees the satisfied row's
	// entry at 2 => 2; plus A 4 => 6. At id 2,3: h=9 lands in the >=7 row,
	// empty => A only, 4.
	want := simlist.NewList(6, entry(1, 1, 6), entry(2, 3, 4))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestEvalAtLevelGrouping(t *testing.T) {
	child1 := stubSource{
		n:      2,
		max:    map[string]float64{"A": 4},
		tables: map[string]*simlist.Table{"A": closedTable(4, entry(1, 1, 3))},
	}
	child2 := stubSource{
		n:      2,
		max:    map[string]float64{"A": 4},
		tables: map[string]*simlist.Table{"A": closedTable(4, entry(2, 2, 4))},
	}
	src := stubSource{
		n:      3,
		max:    map[string]float64{"A": 4},
		childs: map[int]Source{1: child1, 2: child2},
	}
	got, err := Eval(src, mustParse(t, "at-next-level(A)"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1: A at first child = 3. Segment 2: A holds at child 2, not
	// child 1 => 0. Segment 3: no children => 0.
	want := simlist.NewList(4, entry(1, 1, 3))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestEvalAtLevelBindingsFlow(t *testing.T) {
	// P(x) holds for different objects in different children; the at-level
	// table must keep one row per binding across parent segments.
	mk := func(obj simlist.ObjectID, act float64) stubSource {
		tb := simlist.NewTable([]string{"x"}, nil, 4)
		tb.MustAddRow([]simlist.ObjectID{obj}, nil, simlist.NewList(4, entry(1, 1, act)))
		return stubSource{n: 1, max: map[string]float64{"P(x)": 4},
			tables: map[string]*simlist.Table{"P(x)": tb}}
	}
	src := stubSource{
		n:      3,
		max:    map[string]float64{"P(x)": 4},
		childs: map[int]Source{1: mk(7, 2), 2: mk(8, 3), 3: mk(7, 4)},
	}
	tb, err := EvalTable(src, mustParse(t, "exists x . at-next-level(P(x))").(htl.Exists).F, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("rows: %v", tb)
	}
	byObj := map[simlist.ObjectID]simlist.List{}
	for ri := range tb.Len() {
		byObj[tb.Bindings(ri)[0]] = tb.List(ri)
	}
	if byObj[7].At(1).Act != 2 || byObj[7].At(3).Act != 4 || byObj[8].At(2).Act != 3 {
		t.Fatalf("grouped lists: %v", tb)
	}
	// Projection takes the per-id max over bindings.
	got := ProjectMax(tb)
	want := simlist.NewList(4, entry(1, 1, 2), entry(2, 2, 3), entry(3, 3, 4))
	if !simlist.Equal(got, want) {
		t.Fatalf("projection: %v", got)
	}
}

func TestCombineTablesTwoSharedVars(t *testing.T) {
	t1 := simlist.NewTable([]string{"x", "y"}, nil, 4)
	t1.MustAddRow([]simlist.ObjectID{1, 2}, nil, list(4, entry(1, 1, 4)))
	t1.MustAddRow([]simlist.ObjectID{1, 3}, nil, list(4, entry(2, 2, 4)))
	t2 := simlist.NewTable([]string{"y", "x"}, nil, 6)
	t2.MustAddRow([]simlist.ObjectID{2, 1}, nil, list(6, entry(1, 1, 6)))
	out := CombineTables(t1, t2, AndLists, 10)
	// Only (x=1, y=2) joins; (1,3) survives as a partial outer row.
	if out.Len() != 2 {
		t.Fatalf("rows: %v", out)
	}
	for ri := range out.Len() {
		if out.Bindings(ri)[0] == 1 && out.Bindings(ri)[1] == 2 {
			if out.List(ri).At(1).Act != 10 {
				t.Fatalf("joined: %v", out.List(ri))
			}
		} else if out.List(ri).At(2).Act != 4 {
			t.Fatalf("outer: %v", out.List(ri))
		}
	}
}

func TestEvalRejectsGeneral(t *testing.T) {
	src := stubSource{n: 3}
	_, err := Eval(src, mustParse(t, "not (A until B)"), DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "extended conjunctive") {
		t.Fatalf("err = %v", err)
	}
	var nc *ErrNotConjunctive
	if !errorsAs(err, &nc) {
		t.Fatalf("error type: %T", err)
	}
}

func errorsAs(err error, target **ErrNotConjunctive) bool {
	for err != nil {
		if e, ok := err.(*ErrNotConjunctive); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestEvalTableExposesRows(t *testing.T) {
	p := simlist.NewTable([]string{"x"}, nil, 4)
	p.MustAddRow([]simlist.ObjectID{1}, nil, simlist.NewList(4, entry(1, 1, 4)))
	src := stubSource{
		n:      2,
		max:    map[string]float64{"P(x)": 4},
		tables: map[string]*simlist.Table{"P(x)": p},
	}
	tb, err := EvalTable(src, mustParse(t, "exists x . eventually P(x)").(htl.Exists).F, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 || tb.Bindings(0)[0] != 1 {
		t.Fatalf("table: %v", tb)
	}
}
