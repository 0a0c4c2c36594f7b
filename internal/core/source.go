package core

import (
	"fmt"

	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

// AnyObject is the wildcard object binding in similarity-table rows produced
// by outer joins: the row's similarity list holds for every assignment of
// that variable. Store object ids are strictly positive, so 0 is free.
const AnyObject simlist.ObjectID = 0

// AttrValue is a concrete attribute value flowing through value tables
// (paper §3.3). It mirrors metadata.Value without importing it, keeping the
// evaluator decoupled from the storage model.
type AttrValue struct {
	IsInt bool
	Int   int64
	Str   string
}

// InRange reports whether the value satisfies an attribute-variable range.
func (v AttrValue) InRange(r simlist.Range) bool {
	if v.IsInt {
		return r.ContainsInt(v.Int)
	}
	return r.ContainsStr(v.Str)
}

func (v AttrValue) String() string {
	if v.IsInt {
		return fmt.Sprint(v.Int)
	}
	return fmt.Sprintf("%q", v.Str)
}

// ValueRow is one row of a value table: for the evaluation binding the
// attribute function's object variable to Binding, the attribute has value
// Value at every id in Ivs (sorted, disjoint).
type ValueRow struct {
	Binding simlist.ObjectID // meaningful only when the table has a variable
	Value   AttrValue
	Ivs     []interval.I
}

// ValueTable is the paper's §3.3 "value table" R for an attribute function
// q: where (and for which object) each attribute value holds.
//
// Rows are ordered by Binding: the rows of one object are one contiguous
// run, which FreezeTable finds by binary search instead of scanning the
// table per similarity-table row. The order within a run is the source's
// and decides only the order in which equal evaluations are first seen.
// Validate checks the contract.
type ValueTable struct {
	// Var is q's object variable name; empty for segment-level attributes.
	Var  string
	Rows []ValueRow
}

// Validate checks what FreezeTable relies on: rows ordered by binding, and
// every row's intervals valid, ascending and disjoint.
func (vt *ValueTable) Validate() error {
	for i, r := range vt.Rows {
		if i > 0 && r.Binding < vt.Rows[i-1].Binding {
			return fmt.Errorf("core: value row %d binds %d after %d: rows must be ordered by binding", i, r.Binding, vt.Rows[i-1].Binding)
		}
		for k, iv := range r.Ivs {
			if !iv.Valid() || (k > 0 && iv.Beg <= r.Ivs[k-1].End) {
				return fmt.Errorf("core: value row %d: interval %v is invalid, out of order or overlaps its predecessor", i, iv)
			}
		}
	}
	return nil
}

// Source supplies the evaluator with everything it needs about one proper
// sequence of video segments: atomic similarity tables from the picture
// retrieval substrate, value tables for freeze operators, and access to the
// descendant sequences that level-modal operators descend into.
type Source interface {
	// EvalAtomicNode computes the similarity table of a non-temporal plan
	// node's formula n.F over this sequence, carving it from a (the heap
	// when a is nil). The table's object/attribute variable columns are
	// exactly the free variables of n.F; a closed formula yields a table
	// with a single anonymous row (or none, when it is nowhere satisfied).
	// The source gets the node rather than the formula so that it can keep
	// a compiled form on it (PNode.Atom): one query asks for the same node
	// on every video and child sequence.
	EvalAtomicNode(n *PNode, a *Arena) (*simlist.Table, error)

	// AtomicMaxSim returns the maximum similarity of a non-temporal formula
	// (a function of the formula only, §2.5).
	AtomicMaxSim(f htl.Formula) float64

	// ValueTable computes the value table of attribute function q over this
	// sequence, carving it from a (the heap when a is nil).
	ValueTable(q htl.AttrFn, a *Arena) (*ValueTable, error)

	// Len returns the number of segments in this sequence (ids 1..Len). It
	// is at most interval.MaxID.
	Len() int

	// ChildSource returns the Source for the proper sequence of descendants
	// of segment id (1-based) at the level designated by ref. It returns
	// (nil, nil) when the segment has no descendants at that level — the
	// level-modal operator then has actual similarity 0 there (§2.5) — and
	// an error only when ref itself cannot be resolved (e.g. an unknown
	// level name).
	ChildSource(id int, ref htl.LevelRef) (Source, error)
}
