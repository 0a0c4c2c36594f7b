package simlist

import (
	"fmt"
	"strings"
)

// ObjectID identifies an object across the frames of a video (paper §2.2:
// "each object in a picture is assigned an object id such that the same
// object in different pictures is given the same id").
type ObjectID int64

// Row is one row of a similarity table as a value: an evaluation of the
// formula's free variables together with the similarity list that holds
// under it. Bindings are aligned with the owning table's ObjVars, Ranges with
// its AttrVars. Table.Row returns one; its slices are the table's columns.
type Row struct {
	Bindings []ObjectID
	Ranges   []Range
	List     List
}

// Table is a similarity table (paper §3.2–3.3): the first columns name the
// free object variables, the next the free attribute variables (constrained
// to ranges), and the last column is a similarity list per row.
//
// It is stored by column, and a row is an index i into them: row i binds
// ObjVars to Objs[i*len(ObjVars):(i+1)*len(ObjVars)], constrains AttrVars to
// Rngs[i*len(AttrVars):(i+1)*len(AttrVars)], and carries the list
// Entries[Off[i]:Off[i+1]] with maximum MaxSim. Off has one element more than
// the table has rows (or none, for a table without rows), starts at 0 and
// ends at len(Entries): the lists lie in row order with no gaps, so Entries is
// also every entry of the table. Whoever built a table owns its columns; a
// table that is handed on is read, never written — two tables may share a
// key column (Validate states the rest).
type Table struct {
	ObjVars  []string
	AttrVars []string
	MaxSim   float64

	Objs    []ObjectID
	Rngs    []Range
	Entries []Entry
	Off     []int32
}

// NewTable returns an empty table with the given schema and maximum
// similarity.
func NewTable(objVars, attrVars []string, maxSim float64) *Table {
	return &Table{ObjVars: objVars, AttrVars: attrVars, MaxSim: maxSim}
}

// Len returns the number of rows.
func (t *Table) Len() int { return max(len(t.Off)-1, 0) }

// Bindings returns row i's object bindings, aligned with ObjVars.
func (t *Table) Bindings(i int) []ObjectID {
	n := len(t.ObjVars)
	return t.Objs[i*n : (i+1)*n : (i+1)*n]
}

// Ranges returns row i's attribute ranges, aligned with AttrVars.
func (t *Table) Ranges(i int) []Range {
	n := len(t.AttrVars)
	return t.Rngs[i*n : (i+1)*n : (i+1)*n]
}

// List returns row i's similarity list.
func (t *Table) List(i int) List {
	lo, hi := t.Off[i], t.Off[i+1]
	if lo == hi {
		return List{MaxSim: t.MaxSim}
	}
	return List{MaxSim: t.MaxSim, Entries: t.Entries[lo:hi:hi]}
}

// Row returns row i as a value.
func (t *Table) Row(i int) Row {
	return Row{Bindings: t.Bindings(i), Ranges: t.Ranges(i), List: t.List(i)}
}

// AddRow appends a row after checking that its shape matches the schema.
// The row's values are copied into the table's columns.
func (t *Table) AddRow(bindings []ObjectID, ranges []Range, list List) error {
	if len(bindings) != len(t.ObjVars) {
		return fmt.Errorf("simlist: row has %d bindings, table has %d object variables", len(bindings), len(t.ObjVars))
	}
	if len(ranges) != len(t.AttrVars) {
		return fmt.Errorf("simlist: row has %d ranges, table has %d attribute variables", len(ranges), len(t.AttrVars))
	}
	for _, r := range ranges {
		if r.IsEmpty() {
			return fmt.Errorf("simlist: row carries an unsatisfiable attribute range")
		}
	}
	if list.MaxSim != t.MaxSim {
		return fmt.Errorf("simlist: row list max %g differs from table max %g", list.MaxSim, t.MaxSim)
	}
	if len(t.Off) == 0 {
		t.Off = append(t.Off, 0)
	}
	t.Objs = append(t.Objs, bindings...)
	t.Rngs = append(t.Rngs, ranges...)
	t.Entries = append(t.Entries, list.Entries...)
	t.Off = append(t.Off, int32(len(t.Entries)))
	return nil
}

// MustAddRow is AddRow that panics on schema mismatch; for construction of
// tables with statically known shape.
func (t *Table) MustAddRow(bindings []ObjectID, ranges []Range, list List) {
	if err := t.AddRow(bindings, ranges, list); err != nil {
		panic(err)
	}
}

// ObjIndex returns the column index of object variable name, or -1.
func (t *Table) ObjIndex(name string) int {
	for i, v := range t.ObjVars {
		if v == name {
			return i
		}
	}
	return -1
}

// AttrIndex returns the column index of attribute variable name, or -1.
func (t *Table) AttrIndex(name string) int {
	for i, v := range t.AttrVars {
		if v == name {
			return i
		}
	}
	return -1
}

// Validate checks the columns against the schema — a key column holds a
// value per row and variable, the offsets ascend from 0 to len(Entries) —
// and every row's list and ranges.
func (t *Table) Validate() error {
	n := t.Len()
	if len(t.Objs) != n*len(t.ObjVars) || len(t.Rngs) != n*len(t.AttrVars) {
		return fmt.Errorf("simlist: %d rows need %d bindings and %d ranges, the columns hold %d and %d",
			n, n*len(t.ObjVars), n*len(t.AttrVars), len(t.Objs), len(t.Rngs))
	}
	if len(t.Off) > 0 && (t.Off[0] != 0 || int(t.Off[n]) != len(t.Entries)) || len(t.Off) == 0 && len(t.Entries) > 0 {
		return fmt.Errorf("simlist: offsets %v do not span the %d entries", t.Off, len(t.Entries))
	}
	for i := range n {
		if t.Off[i] > t.Off[i+1] {
			return fmt.Errorf("simlist: row %d ends at %d before it begins at %d", i, t.Off[i+1], t.Off[i])
		}
		if err := t.List(i).Validate(); err != nil {
			return fmt.Errorf("simlist: row %d: %w", i, err)
		}
		for _, rg := range t.Ranges(i) {
			if rg.IsEmpty() {
				return fmt.Errorf("simlist: row %d carries empty attribute range", i)
			}
		}
	}
	return nil
}

// String renders the table for diagnostics.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table obj=%v attr=%v max=%g\n", t.ObjVars, t.AttrVars, t.MaxSim)
	for i := range t.Len() {
		fmt.Fprintf(&b, "  %v %v -> %v\n", t.Bindings(i), t.Ranges(i), t.List(i))
	}
	return b.String()
}
