package simlist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRangeConstructors(t *testing.T) {
	for _, tc := range []struct {
		r        Range
		in, out  int64
		contains bool
	}{
		{IntAbove(5), 6, 5, true},
		{IntAtLeast(5), 5, 4, true},
		{IntBelow(5), 4, 5, true},
		{IntAtMost(5), 5, 6, true},
		{IntEq(5), 5, 4, true},
	} {
		if !tc.r.ContainsInt(tc.in) {
			t.Errorf("%v should contain %d", tc.r, tc.in)
		}
		if tc.r.ContainsInt(tc.out) {
			t.Errorf("%v should not contain %d", tc.r, tc.out)
		}
	}
}

func TestRangeEdges(t *testing.T) {
	if !IntAbove(math.MaxInt64).IsEmpty() {
		t.Fatal("y > MaxInt64 should be empty")
	}
	if !IntBelow(math.MinInt64).IsEmpty() {
		t.Fatal("y < MinInt64 should be empty")
	}
	if !IntRange(5, 4).IsEmpty() {
		t.Fatal("inverted range should be empty")
	}
}

func TestRangeIntersect(t *testing.T) {
	for _, tc := range []struct {
		a, b, want Range
	}{
		{AnyRange(), IntEq(3), IntEq(3)},
		{IntEq(3), AnyRange(), IntEq(3)},
		{IntRange(1, 10), IntRange(5, 20), IntRange(5, 10)},
		{IntRange(1, 4), IntRange(5, 20), EmptyRange()},
		{StrEq("a"), StrEq("a"), StrEq("a")},
		{StrEq("a"), StrEq("b"), EmptyRange()},
		{StrEq("a"), IntEq(1), EmptyRange()},
		{EmptyRange(), AnyRange(), EmptyRange()},
	} {
		if got := tc.a.Intersect(tc.b); got != tc.want {
			t.Errorf("%v ∩ %v = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRangeContainsStr(t *testing.T) {
	if !StrEq("western").ContainsStr("western") || StrEq("western").ContainsStr("news") {
		t.Fatal("StrEq membership wrong")
	}
	if !AnyRange().ContainsStr("x") {
		t.Fatal("AnyRange should contain all strings")
	}
	if IntEq(3).ContainsStr("3") {
		t.Fatal("int range should not contain strings")
	}
}

func TestRangeString(t *testing.T) {
	for _, tc := range []struct {
		r    Range
		want string
	}{
		{AnyRange(), "any"},
		{EmptyRange(), "empty"},
		{StrEq("x"), `= "x"`},
		{IntRange(1, 5), "[1, 5]"},
		{IntAtLeast(1), "[1, +inf]"},
		{IntAtMost(5), "[-inf, 5]"},
	} {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.r, got, tc.want)
		}
	}
}

// Property: intersection agrees with pointwise membership on ints.
func TestRangeIntersectProperty(t *testing.T) {
	f := func(a, b, c, d int8, v int8) bool {
		r1 := IntRange(int64(min(a, b)), int64(max(a, b)))
		r2 := IntRange(int64(min(c, d)), int64(max(c, d)))
		got := r1.Intersect(r2)
		val := int64(v)
		return got.ContainsInt(val) == (r1.ContainsInt(val) && r2.ContainsInt(val))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTableSchema(t *testing.T) {
	tb := NewTable([]string{"x", "y"}, []string{"h"}, 20)
	if tb.ObjIndex("y") != 1 || tb.ObjIndex("z") != -1 {
		t.Fatal("ObjIndex wrong")
	}
	if tb.AttrIndex("h") != 0 || tb.AttrIndex("x") != -1 {
		t.Fatal("AttrIndex wrong")
	}
	if err := tb.AddRow([]ObjectID{1}, []Range{AnyRange()}, Empty(20)); err == nil {
		t.Fatal("short bindings should be rejected")
	}
	if err := tb.AddRow([]ObjectID{1, 2}, nil, Empty(20)); err == nil {
		t.Fatal("missing ranges should be rejected")
	}
	if err := tb.AddRow([]ObjectID{1, 2}, []Range{EmptyRange()}, Empty(20)); err == nil {
		t.Fatal("empty range row should be rejected")
	}
	if err := tb.AddRow([]ObjectID{1, 2}, []Range{IntAtLeast(3)}, NewList(20, entry(1, 4, 7))); err != nil {
		t.Fatal(err)
	}
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTableValidateCatchesBadList(t *testing.T) {
	tb := NewTable([]string{"x"}, nil, 20)
	if err := tb.AddRow([]ObjectID{1}, nil, List{MaxSim: 5, Entries: []Entry{entry(1, 2, 3)}}); err == nil {
		t.Fatal("row list max mismatch should be rejected")
	}
	tb.MustAddRow([]ObjectID{1}, nil, NewList(20, entry(1, 2, 3)))
	tb.MustAddRow([]ObjectID{2}, nil, NewList(20, entry(4, 5, 6)))
	tb.Entries[1].Iv.Beg = 1 // overlaps row 0's entry: each row's list is its own
	if err := tb.Validate(); err != nil {
		t.Fatalf("rows' lists are validated one by one, not as one: %v", err)
	}
	tb.Entries[1].Act = 30
	if err := tb.Validate(); err == nil {
		t.Fatal("an entry above the table max should fail validation")
	}
}

// Validate holds the columns to the schema: a value per row and variable in
// each key column, offsets that ascend from 0 to the end of the entries.
func TestTableValidateColumns(t *testing.T) {
	good := func() *Table {
		tb := NewTable([]string{"x"}, []string{"h"}, 20)
		tb.MustAddRow([]ObjectID{1}, []Range{IntAtLeast(3)}, NewList(20, entry(1, 2, 3)))
		tb.MustAddRow([]ObjectID{2}, []Range{AnyRange()}, Empty(20))
		tb.MustAddRow([]ObjectID{3}, []Range{IntBelow(3)}, NewList(20, entry(1, 1, 2), entry(4, 5, 6)))
		return tb
	}
	if err := good().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := NewTable([]string{"x"}, nil, 1).Validate(); err != nil {
		t.Fatalf("a table without rows: %v", err)
	}
	for name, corrupt := range map[string]func(*Table){
		"short binding column": func(tb *Table) { tb.Objs = tb.Objs[:2] },
		"long range column":    func(tb *Table) { tb.Rngs = append(tb.Rngs, AnyRange()) },
		"offsets not from 0":   func(tb *Table) { tb.Off[0] = 1 },
		"offsets short of end": func(tb *Table) { tb.Entries = append(tb.Entries, entry(9, 9, 1)) },
		"offsets descend":      func(tb *Table) { tb.Off[1], tb.Off[2] = 2, 1 },
		"empty range":          func(tb *Table) { tb.Rngs[0] = EmptyRange() },
		"invalid region":       func(tb *Table) { tb.Entries[1], tb.Entries[2] = tb.Entries[2], tb.Entries[1] },
		"entries, no offsets":  func(tb *Table) { tb.Off, tb.Objs, tb.Rngs = nil, nil, nil },
	} {
		tb := good()
		corrupt(tb)
		if tb.Validate() == nil {
			t.Errorf("%s: Validate accepted %v", name, tb)
		}
	}
}

func TestMustAddRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddRow should panic on shape mismatch")
		}
	}()
	NewTable([]string{"x"}, nil, 20).MustAddRow(nil, nil, Empty(20))
}
