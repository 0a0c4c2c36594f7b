package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

func list(max float64, es ...simlist.Entry) simlist.List {
	return simlist.NewList(max, es...)
}

func TestCombineTablesSharedVarJoin(t *testing.T) {
	t1 := simlist.NewTable([]string{"x"}, nil, 4)
	t1.MustAddRow([]simlist.ObjectID{1}, nil, list(4, entry(1, 3, 2)))
	t1.MustAddRow([]simlist.ObjectID{2}, nil, list(4, entry(5, 6, 4)))
	t2 := simlist.NewTable([]string{"x"}, nil, 6)
	t2.MustAddRow([]simlist.ObjectID{1}, nil, list(6, entry(2, 4, 6)))

	out := CombineTables(t1, t2, AndLists, 10)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Row (x=1): joined lists; row (x=2): outer row keeping the partial 4.
	if out.Len() != 2 {
		t.Fatalf("rows: %v", out)
	}
	byBinding := map[simlist.ObjectID]simlist.List{}
	for ri := range out.Len() {
		r := rowOf(out, ri)
		byBinding[r.Bindings[0]] = r.List
	}
	if got := byBinding[1].At(2).Act; got != 8 {
		t.Fatalf("x=1 at 2: %g", got)
	}
	if got := byBinding[1].At(1).Act; got != 2 {
		t.Fatalf("x=1 at 1: %g", got)
	}
	if got := byBinding[2].At(5).Act; got != 4 {
		t.Fatalf("x=2 outer row: %g", got)
	}
}

func TestCombineTablesCrossJoin(t *testing.T) {
	t1 := simlist.NewTable([]string{"x"}, nil, 4)
	t1.MustAddRow([]simlist.ObjectID{1}, nil, list(4, entry(1, 2, 2)))
	t2 := simlist.NewTable([]string{"y"}, nil, 6)
	t2.MustAddRow([]simlist.ObjectID{7}, nil, list(6, entry(2, 3, 3)))
	t2.MustAddRow([]simlist.ObjectID{8}, nil, list(6, entry(9, 9, 1)))

	out := CombineTables(t1, t2, AndLists, 10)
	if len(out.ObjVars) != 2 || out.ObjVars[0] != "x" || out.ObjVars[1] != "y" {
		t.Fatalf("schema: %v", out.ObjVars)
	}
	if out.Len() != 2 {
		t.Fatalf("rows: %v", out)
	}
}

func TestCombineTablesEmptySides(t *testing.T) {
	t1 := simlist.NewTable([]string{"x"}, nil, 4)
	t2 := simlist.NewTable([]string{"x"}, nil, 6)
	t2.MustAddRow([]simlist.ObjectID{3}, nil, list(6, entry(1, 1, 5)))

	// t1 empty: t2's row survives as an outer row under AND.
	out := CombineTables(t1, t2, AndLists, 10)
	if out.Len() != 1 || rowOf(out, 0).Bindings[0] != 3 || rowOf(out, 0).List.At(1).Act != 5 {
		t.Fatalf("out: %v", out)
	}
	// Under UNTIL the unmatched right side keeps h pointwise.
	until := func(a, b simlist.List) simlist.List { return UntilLists(a, b, 0.5) }
	out2 := CombineTables(t1, t2, until, 6)
	if out2.Len() != 1 || rowOf(out2, 0).List.At(1).Act != 5 {
		t.Fatalf("until out: %v", out2)
	}
	// Unmatched LEFT side under UNTIL yields an empty list and is dropped.
	out3 := CombineTables(t2, t1, until, 6)
	if out3.Len() != 0 {
		t.Fatalf("left-only until rows: %v", out3)
	}
}

func TestCombineTablesWildcardMatchesEverything(t *testing.T) {
	t1 := simlist.NewTable([]string{"x"}, nil, 4)
	t1.MustAddRow([]simlist.ObjectID{AnyObject}, nil, list(4, entry(1, 1, 1)))
	t2 := simlist.NewTable([]string{"x"}, nil, 6)
	t2.MustAddRow([]simlist.ObjectID{5}, nil, list(6, entry(1, 1, 2)))
	t2.MustAddRow([]simlist.ObjectID{6}, nil, list(6, entry(1, 1, 3)))

	out := CombineTables(t1, t2, AndLists, 10)
	if out.Len() != 2 {
		t.Fatalf("wildcard join rows: %v", out)
	}
	for ri := range out.Len() {
		r := rowOf(out, ri)
		if r.Bindings[0] == AnyObject {
			t.Fatalf("joined binding should be concrete: %v", r)
		}
	}
}

func TestCombineTablesRangeIntersection(t *testing.T) {
	t1 := simlist.NewTable(nil, []string{"h"}, 4)
	t1.MustAddRow(nil, []simlist.Range{simlist.IntAtMost(10)}, list(4, entry(1, 2, 2)))
	t2 := simlist.NewTable(nil, []string{"h"}, 6)
	t2.MustAddRow(nil, []simlist.Range{simlist.IntAtLeast(5)}, list(6, entry(2, 2, 3)))
	t2.MustAddRow(nil, []simlist.Range{simlist.IntAtLeast(11)}, list(6, entry(2, 2, 1)))

	out := CombineTables(t1, t2, AndLists, 10)
	// First pair intersects to [5,10]; second pair's ranges are disjoint, so
	// both sides survive as partial outer rows... but the t1 row DID match
	// the first t2 row, so only the second t2 row is unmatched.
	var joined, outer int
	for ri := range out.Len() {
		r := rowOf(out, ri)
		if r.Ranges[0] == simlist.IntRange(5, 10) {
			joined++
			if r.List.At(2).Act != 5 {
				t.Fatalf("joined row: %v", r)
			}
		}
		if r.Ranges[0] == simlist.IntAtLeast(11) {
			outer++
			if r.List.At(2).Act != 1 {
				t.Fatalf("outer row: %v", r)
			}
		}
	}
	if joined != 1 || outer != 1 {
		t.Fatalf("rows: %v", out)
	}
}

// A list operator may hold more pieces on the way than it returns — until's
// suffix maximum swallows what it dominates — so the join's exactly sized
// column can be outgrown while its last list is written; the list is then
// copied back into its place.
func TestJoinLastListOutgrowsItsRoom(t *testing.T) {
	g := closedTable(4, entry(1, 3, 4))
	h := closedTable(6, entry(1, 1, 3), entry(2, 2, 2), entry(3, 3, 5))
	var e planEval
	got := e.join(nil, g, h, 6, 1, func(dst []simlist.Entry, l1, l2 simlist.List) []simlist.Entry {
		return appendUntil(dst, l1, l2, 0.5, 1)
	})
	if want := closedTable(6, entry(1, 3, 5)); got.String() != want.String() || got.Validate() != nil {
		t.Fatalf("got %vwant %v", got, want)
	}
}

func TestKeepRowCoverageMarkers(t *testing.T) {
	if keepRow(0, constrained(nil)) || keepRow(0, constrained([]simlist.Range{simlist.AnyRange()})) {
		t.Fatal("all-Any empty row should drop")
	}
	if !keepRow(0, constrained([]simlist.Range{simlist.IntAtLeast(3)})) {
		t.Fatal("constrained empty row is a coverage marker")
	}
	if !keepRow(1, constrained(nil)) {
		t.Fatal("non-empty row stays")
	}
}

func TestListRestrict(t *testing.T) {
	l := list(10, entry(1, 10, 4), entry(20, 25, 7))
	got := ListRestrict(l, []interval.I{{Beg: 5, End: 8}, {Beg: 22, End: 30}})
	want := list(10, entry(5, 8, 4), entry(22, 25, 7))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v", got)
	}
	if got := ListRestrict(l, nil); len(got.Entries) != 0 {
		t.Fatalf("restrict to nothing: %v", got)
	}
}

func TestFreezeTableJoinsValues(t *testing.T) {
	// Operand table: rows over (z; h-range).
	t1 := simlist.NewTable([]string{"z"}, []string{"h"}, 8)
	t1.MustAddRow([]simlist.ObjectID{1}, []simlist.Range{simlist.IntBelow(20)}, list(8, entry(1, 5, 8)))
	t1.MustAddRow([]simlist.ObjectID{1}, []simlist.Range{simlist.IntAtLeast(20)}, list(8, entry(1, 5, 4)))

	// Value table: height(z=1) is 10 at ids 1-2 and 30 at ids 3-4.
	vt := &ValueTable{Var: "z", Rows: []ValueRow{
		{Binding: 1, Value: AttrValue{IsInt: true, Int: 10}, Ivs: []interval.I{{Beg: 1, End: 2}}},
		{Binding: 1, Value: AttrValue{IsInt: true, Int: 30}, Ivs: []interval.I{{Beg: 3, End: 4}}},
	}}
	out := FreezeTable(t1, "h", vt, "z")
	if len(out.AttrVars) != 0 || len(out.ObjVars) != 1 {
		t.Fatalf("schema: %v %v", out.ObjVars, out.AttrVars)
	}
	if out.Len() != 1 {
		t.Fatalf("rows: %v", out)
	}
	l := rowOf(out, 0).List
	// ids 1-2: h=10 lands in the <20 row (8); ids 3-4: h=30 lands in the
	// >=20 row (4); id 5: height undefined -> 0.
	for id, want := range map[int]float64{1: 8, 2: 8, 3: 4, 4: 4, 5: 0} {
		if got := l.At(id).Act; got != want {
			t.Errorf("at %d: %g want %g", id, got, want)
		}
	}
}

// A freeze whose variable the operand does not use still needs q's value
// (DESIGN.md §7.5): the operand's lists survive where q is defined and are 0
// elsewhere, and an object attribute adds its variable's column.
func TestFreezeTableVacuous(t *testing.T) {
	t1 := simlist.NewTable([]string{"x"}, nil, 8)
	t1.MustAddRow([]simlist.ObjectID{1}, nil, list(8, entry(1, 6, 3)))
	t1.MustAddRow([]simlist.ObjectID{2}, nil, list(8, entry(2, 3, 5)))
	// An attribute defined everywhere, with two values: the freeze restricts
	// to nothing, and the value rows' pieces merge back into one list.
	always := &ValueTable{Rows: []ValueRow{
		{Value: AttrValue{IsInt: true, Int: 1}, Ivs: []interval.I{{Beg: 1, End: 3}}},
		{Value: AttrValue{IsInt: true, Int: 2}, Ivs: []interval.I{{Beg: 4, End: 9}}},
	}}
	if got := FreezeTable(t1, "n", always, ""); got.String() != t1.String() {
		t.Fatalf("over an attribute defined everywhere:\ngot  %vwant %v", got, t1)
	}
	// An attribute undefined at 2 and 5: both rows lose those ids.
	sometimes := &ValueTable{Rows: []ValueRow{
		{Value: AttrValue{Str: "news"}, Ivs: []interval.I{{Beg: 1, End: 1}, {Beg: 6, End: 6}}},
		{Value: AttrValue{Str: "western"}, Ivs: []interval.I{{Beg: 3, End: 4}}},
	}}
	want := simlist.NewTable([]string{"x"}, nil, 8)
	want.MustAddRow([]simlist.ObjectID{1}, nil, list(8, entry(1, 1, 3), entry(3, 4, 3), entry(6, 6, 3)))
	want.MustAddRow([]simlist.ObjectID{2}, nil, list(8, entry(3, 3, 5)))
	if got := FreezeTable(t1, "n", sometimes, ""); got.String() != want.String() {
		t.Fatalf("over an attribute undefined at 2 and 5:\ngot  %vwant %v", got, want)
	}
	// An object attribute of a variable the operand lacks: every object's
	// value rows join, each under a row of its own.
	heights := &ValueTable{Var: "z", Rows: []ValueRow{
		{Binding: 4, Value: AttrValue{IsInt: true, Int: 7}, Ivs: []interval.I{{Beg: 2, End: 5}}},
		{Binding: 6, Value: AttrValue{IsInt: true, Int: 1}, Ivs: []interval.I{{Beg: 6, End: 6}}},
	}}
	want = simlist.NewTable([]string{"x", "z"}, nil, 8)
	want.MustAddRow([]simlist.ObjectID{1, 4}, nil, list(8, entry(2, 5, 3)))
	want.MustAddRow([]simlist.ObjectID{1, 6}, nil, list(8, entry(6, 6, 3)))
	want.MustAddRow([]simlist.ObjectID{2, 4}, nil, list(8, entry(2, 3, 5)))
	if got := FreezeTable(t1, "n", heights, "z"); got.String() != want.String() {
		t.Fatalf("over an object attribute:\ngot  %vwant %v", got, want)
	}
}

func TestFreezeTableAddsVarColumn(t *testing.T) {
	// Operand mentions h but not z: the value table's binding introduces z.
	t1 := simlist.NewTable(nil, []string{"h"}, 8)
	t1.MustAddRow(nil, []simlist.Range{simlist.IntAtLeast(0)}, list(8, entry(1, 4, 2)))
	vt := &ValueTable{Var: "z", Rows: []ValueRow{
		{Binding: 9, Value: AttrValue{IsInt: true, Int: 5}, Ivs: []interval.I{{Beg: 2, End: 3}}},
	}}
	out := FreezeTable(t1, "h", vt, "z")
	if len(out.ObjVars) != 1 || out.ObjVars[0] != "z" {
		t.Fatalf("schema: %v", out.ObjVars)
	}
	if out.Len() != 1 || rowOf(out, 0).Bindings[0] != 9 {
		t.Fatalf("rows: %v", out)
	}
	if got := rowOf(out, 0).List.At(2).Act; got != 2 {
		t.Fatalf("restricted: %v", rowOf(out, 0).List)
	}
}

func TestFreezeTableStringValues(t *testing.T) {
	t1 := simlist.NewTable(nil, []string{"g"}, 8)
	t1.MustAddRow(nil, []simlist.Range{simlist.StrEq("western")}, list(8, entry(1, 9, 5)))
	vt := &ValueTable{Rows: []ValueRow{
		{Value: AttrValue{Str: "western"}, Ivs: []interval.I{{Beg: 1, End: 3}}},
		{Value: AttrValue{Str: "news"}, Ivs: []interval.I{{Beg: 4, End: 9}}},
	}}
	out := FreezeTable(t1, "g", vt, "")
	if out.Len() != 1 {
		t.Fatalf("rows: %v", out)
	}
	if got := rowOf(out, 0).List; got.At(2).Act != 5 || got.At(5).Act != 0 {
		t.Fatalf("list: %v", got)
	}
}

func TestProjectMax(t *testing.T) {
	tb := simlist.NewTable([]string{"x"}, nil, 9)
	tb.MustAddRow([]simlist.ObjectID{1}, nil, list(9, entry(1, 4, 3)))
	tb.MustAddRow([]simlist.ObjectID{2}, nil, list(9, entry(3, 6, 7)))
	got := ProjectMax(tb)
	want := list(9, entry(1, 2, 3), entry(3, 6, 7))
	if !simlist.Equal(got, want) {
		t.Fatalf("got %v", got)
	}
	if got := ProjectMax(simlist.NewTable(nil, nil, 5)); len(got.Entries) != 0 || got.MaxSim != 5 {
		t.Fatalf("empty table: %v", got)
	}
}

func TestAttrValueInRange(t *testing.T) {
	iv := AttrValue{IsInt: true, Int: 7}
	sv := AttrValue{Str: "x"}
	if !iv.InRange(simlist.IntRange(1, 10)) || iv.InRange(simlist.IntRange(8, 10)) {
		t.Fatal("int range check")
	}
	if !sv.InRange(simlist.StrEq("x")) || sv.InRange(simlist.StrEq("y")) {
		t.Fatal("string range check")
	}
	if !iv.InRange(simlist.AnyRange()) || !sv.InRange(simlist.AnyRange()) {
		t.Fatal("any range check")
	}
	if iv.String() != "7" || sv.String() != `"x"` {
		t.Fatal("AttrValue strings")
	}
}

// freezeTableNaive is FreezeTable the way §3.3 words it, and the way this
// package computed it before the value rows were searched and the groups
// carved from one column: every row against every value row, a restricted
// list per joining pair, pairs grouped under a printed key in first-seen
// order, a group's lists merged by MaxMergeLists. A variable y the operand
// lacks constrains nothing.
func freezeTableNaive(t1 *simlist.Table, y string, vt *ValueTable, qVar string) *simlist.Table {
	yIdx := t1.AttrIndex(y)
	zIdx := -1
	objVars := append([]string(nil), t1.ObjVars...)
	if qVar != "" {
		if zIdx = t1.ObjIndex(qVar); zIdx < 0 {
			objVars = append(objVars, qVar)
		}
	}
	var attrVars []string
	for _, v := range t1.AttrVars {
		if v != y {
			attrVars = append(attrVars, v)
		}
	}
	out := simlist.NewTable(objVars, attrVars, t1.MaxSim)
	type acc struct {
		row   tableRow
		lists []simlist.List
	}
	groups := map[string]*acc{}
	var order []string
	for ri := range t1.Len() {
		r1 := rowOf(t1, ri)
		for _, vr := range vt.Rows {
			if zIdx >= 0 && r1.Bindings[zIdx] != AnyObject && r1.Bindings[zIdx] != vr.Binding {
				continue
			}
			if yIdx >= 0 && !vr.Value.InRange(r1.Ranges[yIdx]) {
				continue
			}
			bindings := append([]simlist.ObjectID(nil), r1.Bindings...)
			if qVar != "" && zIdx >= 0 {
				bindings[zIdx] = vr.Binding
			} else if qVar != "" {
				bindings = append(bindings, vr.Binding)
			}
			var ranges []simlist.Range
			for i, rg := range r1.Ranges {
				if i != yIdx {
					ranges = append(ranges, rg)
				}
			}
			k := fmt.Sprint(bindings, ranges)
			if groups[k] == nil {
				groups[k] = &acc{row: tableRow{Bindings: bindings, Ranges: ranges}}
				order = append(order, k)
			}
			groups[k].lists = append(groups[k].lists, ListRestrict(r1.List, vr.Ivs))
		}
	}
	for _, k := range order {
		row := groups[k].row
		l := MaxMergeLists(t1.MaxSim, groups[k].lists...)
		if len(l.Entries) > 0 || constrained(row.Ranges) {
			out.MustAddRow(row.Bindings, row.Ranges, l)
		}
	}
	return out
}

// combineTablesNaive is CombineTables without the hash index: every row of t1
// tries every row of t2, the rows with a wildcard in a shared column first,
// and a joined pair's keys are worked out here, column by column.
func combineTablesNaive(t1, t2 *simlist.Table, op listCombiner, maxSim float64) *simlist.Table {
	objVars, attrVars := unionVars(t1.ObjVars, t2.ObjVars), unionVars(t1.AttrVars, t2.AttrVars)
	out := simlist.NewTable(objVars, attrVars, maxSim)
	// row joins r1 and r2 (either may be nil: an outer row); ok is false on
	// a conflicting shared binding or an empty shared range.
	row := func(r1, r2 *tableRow) (bindings []simlist.ObjectID, ranges []simlist.Range, ok bool) {
		for _, v := range objVars {
			b := AnyObject
			for _, side := range []struct {
				t *simlist.Table
				r *tableRow
			}{{t1, r1}, {t2, r2}} {
				if c := side.t.ObjIndex(v); c >= 0 && side.r != nil {
					switch o := side.r.Bindings[c]; {
					case b == AnyObject:
						b = o
					case o != AnyObject && o != b:
						return nil, nil, false
					}
				}
			}
			bindings = append(bindings, b)
		}
		for _, v := range attrVars {
			rg := simlist.AnyRange()
			if c := t1.AttrIndex(v); c >= 0 && r1 != nil {
				rg = rg.Intersect(r1.Ranges[c])
			}
			if c := t2.AttrIndex(v); c >= 0 && r2 != nil {
				rg = rg.Intersect(r2.Ranges[c])
			}
			if rg.IsEmpty() {
				return nil, nil, false
			}
			ranges = append(ranges, rg)
		}
		return bindings, ranges, true
	}
	emit := func(r1, r2 *tableRow) bool {
		bindings, ranges, ok := row(r1, r2)
		if !ok {
			return false
		}
		l1, l2 := simlist.Empty(t1.MaxSim), simlist.Empty(t2.MaxSim)
		if r1 != nil {
			l1 = r1.List
		}
		if r2 != nil {
			l2 = r2.List
		}
		if l := op(l1, l2); len(l.Entries) > 0 || constrained(ranges) {
			out.MustAddRow(bindings, ranges, simlist.List{MaxSim: maxSim, Entries: l.Entries})
		}
		return true
	}
	wild := func(t *simlist.Table, r tableRow, other *simlist.Table) bool {
		for c, v := range t.ObjVars {
			if other.ObjIndex(v) >= 0 && r.Bindings[c] == AnyObject {
				return true
			}
		}
		return false
	}
	matched2 := make([]bool, t2.Len())
	for i1 := range t1.Len() {
		r1 := rowOf(t1, i1)
		wild1 := wild(t1, r1, t2)
		matched1 := false
		for _, wildPass := range []bool{true, false} {
			for i2 := range t2.Len() {
				r2 := rowOf(t2, i2)
				if !wild1 && wild(t2, r2, t1) != wildPass {
					continue
				}
				if wild1 && !wildPass {
					continue // a wildcard on our side walks t2 once, in order
				}
				if emit(&r1, &r2) {
					matched1, matched2[i2] = true, true
				}
			}
		}
		if !matched1 {
			emit(&r1, nil)
		}
	}
	for i2 := range t2.Len() {
		if !matched2[i2] {
			r2 := rowOf(t2, i2)
			emit(nil, &r2)
		}
	}
	return out
}

// randomTable builds a table over the given columns: few distinct objects
// (so that joins and groups collide), wildcards among them, ranges of every
// kind, lists that are often a single entry.
func randomTable(rng *rand.Rand, objVars, attrVars []string, maxSim float64) *simlist.Table {
	tb := simlist.NewTable(objVars, attrVars, maxSim)
	for n := rng.Intn(12); n > 0; n-- {
		bindings := make([]simlist.ObjectID, len(objVars))
		for i := range bindings {
			bindings[i] = simlist.ObjectID(rng.Intn(4)) // 0 is the wildcard
		}
		ranges := make([]simlist.Range, len(attrVars))
		for i := range ranges {
			switch rng.Intn(5) {
			case 0:
				ranges[i] = simlist.AnyRange()
			case 1:
				ranges[i] = simlist.StrEq([]string{"news", "western"}[rng.Intn(2)])
			case 2:
				ranges[i] = simlist.IntAtMost(int64(rng.Intn(5)))
			case 3:
				ranges[i] = simlist.IntAbove(int64(rng.Intn(5)))
			default:
				lo := int64(rng.Intn(4))
				ranges[i] = simlist.IntRange(lo, lo+int64(rng.Intn(3)))
			}
		}
		l := randomList(rng, maxSim)
		if rng.Intn(3) > 0 && len(l.Entries) > 1 {
			l.Entries = l.Entries[:1]
		}
		tb.MustAddRow(bindings, ranges, l)
	}
	return tb
}

func randomValueTable(rng *rand.Rand, qVar string) *ValueTable {
	vt := &ValueTable{Var: qVar}
	for n := rng.Intn(10); n > 0; n-- {
		vr := ValueRow{Value: AttrValue{IsInt: true, Int: int64(rng.Intn(6))}}
		if rng.Intn(4) == 0 {
			vr.Value = AttrValue{Str: []string{"news", "western"}[rng.Intn(2)]}
		}
		if qVar != "" {
			vr.Binding = simlist.ObjectID(1 + rng.Intn(4))
		}
		for pos := 1 + rng.Intn(6); pos < denseN && len(vr.Ivs) < 4; pos += 2 + rng.Intn(8) {
			end := pos + rng.Intn(5)
			vr.Ivs = append(vr.Ivs, interval.I{Beg: int32(pos), End: int32(end)})
			pos = end
		}
		vt.Rows = append(vt.Rows, vr)
	}
	// Rows by binding, as the contract says; within an object's run the order
	// the rows were drawn in.
	sort.SliceStable(vt.Rows, func(i, j int) bool { return vt.Rows[i].Binding < vt.Rows[j].Binding })
	return vt
}

// Property: the two-pass FreezeTable returns the naive join's table — rows,
// their order, their lists' entries — over operand tables with one or two
// object columns, wildcards in the frozen variable's column or no such column
// at all, a second range column that survives into the group key, no column
// for the frozen variable (a vacuous freeze), segment and object attributes,
// string and integer values, and groups whose pieces overlap, interleave or
// vanish.
func TestFreezeTableMatchesNaive(t *testing.T) {
	f := func(seed int64, shape uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		objVars := [][]string{nil, {"z"}, {"w"}, {"w", "z"}, {"z", "w"}}[int(shape)%5]
		attrVars := [][]string{{"h"}, {"h", "k"}, {"k", "h"}, {"k"}, nil}[int(shape/5)%5]
		qVar := []string{"z", ""}[int(shape/25)%2]
		t1 := randomTable(rng, objVars, attrVars, 10)
		vt := randomValueTable(rng, qVar)
		if err := vt.Validate(); err != nil {
			t.Fatal(err)
		}
		before := t1.String()
		got, want := FreezeTable(t1, "h", vt, qVar), freezeTableNaive(t1, "h", vt, qVar)
		if err := got.Validate(); err != nil {
			t.Errorf("seed %d shape %d: %v", seed, shape, err)
			return false
		}
		if got.String() != want.String() {
			t.Errorf("seed %d shape %d:\ngot  %vwant %v", seed, shape, got, want)
			return false
		}
		return t1.String() == before // the operand is shared with other parents: untouched
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the hash-chained join returns the nested-loop join's table, row
// for row, for both list operators and for shared columns that hold wildcards.
func TestCombineTablesMatchesNaive(t *testing.T) {
	f := func(seed int64, shape uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := [][2][]string{
			{{"x"}, {"x"}}, {{"x", "y"}, {"y", "x"}}, {{"x"}, {"y"}}, {nil, {"x"}}, {{"x", "y"}, {"y"}}, {nil, nil},
		}[int(shape)%6]
		attrs := [][2][]string{{nil, nil}, {{"h"}, nil}, {{"h"}, {"h"}}, {{"h"}, {"k"}}}[int(shape/6)%4]
		t1, t2 := randomTable(rng, cols[0], attrs[0], 10), randomTable(rng, cols[1], attrs[1], 14)
		for _, op := range []struct {
			f      listCombiner
			maxSim float64
		}{{AndLists, 24}, {func(l1, l2 simlist.List) simlist.List { return UntilLists(l1, l2, 0.5) }, 14}} {
			got, want := CombineTables(t1, t2, op.f, op.maxSim), combineTablesNaive(t1, t2, op.f, op.maxSim)
			if err := got.Validate(); err != nil {
				t.Errorf("seed %d shape %d: %v", seed, shape, err)
				return false
			}
			if got.String() != want.String() {
				t.Errorf("seed %d shape %d:\ngot  %vwant %v", seed, shape, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestValueTableValidate(t *testing.T) {
	ok := &ValueTable{Var: "z", Rows: []ValueRow{
		{Binding: 1, Ivs: []interval.I{{Beg: 1, End: 2}, {Beg: 4, End: 4}}},
		{Binding: 1, Ivs: []interval.I{{Beg: 3, End: 3}}},
		{Binding: 7},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*ValueTable{
		"bindings out of order": {Var: "z", Rows: []ValueRow{{Binding: 2}, {Binding: 1}}},
		"intervals overlap":     {Rows: []ValueRow{{Ivs: []interval.I{{Beg: 1, End: 3}, {Beg: 3, End: 4}}}}},
		"interval invalid":      {Rows: []ValueRow{{Ivs: []interval.I{{Beg: 2, End: 1}}}}},
	} {
		if bad.Validate() == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
}

// tableRow is one row of a table as a value, for the naive references.
type tableRow struct {
	Bindings []simlist.ObjectID
	Ranges   []simlist.Range
	List     simlist.List
}

func rowOf(t *simlist.Table, i int) tableRow {
	return tableRow{t.Bindings(i), t.Ranges(i), t.List(i)}
}
