package picture

import (
	"cmp"
	"slices"
	"sync"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
	"htlvideo/internal/metadata"
	"htlvideo/internal/simlist"
)

// ValueTable implements core.Source: the §3.3 value table of an attribute
// function q over this sequence. For q(x) there is one row per (object,
// value) pair with the id intervals where the object is present carrying
// that value; for a segment attribute, one row per value. The attribute's
// type (`type(x)`) is exposed like any other attribute.
func (s *System) ValueTable(q htl.AttrFn) (*core.ValueTable, error) {
	vt := &core.ValueTable{Var: q.Of}
	if q.Of == "" {
		type key struct{ v core.AttrValue }
		runs := map[key][]interval.I{}
		var order []key
		for i, n := range s.seq {
			v, ok := n.Meta.Attrs[q.Attr]
			if !ok {
				continue
			}
			k := key{toAttrValue(v)}
			if _, seen := runs[k]; !seen {
				order = append(order, k)
			}
			runs[k] = appendIv(runs[k], int32(i+1))
		}
		for _, k := range order {
			vt.Rows = append(vt.Rows, core.ValueRow{Value: k.v, Ivs: runs[k]})
		}
		return vt, nil
	}

	// Every occurrence of an object that has the attribute, grouped by
	// sorting: by object, then value, then segment, so that each row's
	// occurrences are contiguous and ascending.
	scratch := occurrencePool.Get().(*[]occurrence)
	occ := (*scratch)[:0]
	defer func() {
		clear(occ) // drop the value strings
		*scratch = occ
		occurrencePool.Put(scratch)
	}()
	for i, n := range s.seq {
		for oi := range n.Meta.Objects {
			o := &n.Meta.Objects[oi]
			if b := objAttr(o, q.Attr); b.Defined {
				occ = append(occ, occurrence{simlist.ObjectID(o.ID), b.Val, int32(i + 1)})
			}
		}
	}
	slices.SortFunc(occ, func(a, b occurrence) int {
		return cmp.Or(cmp.Compare(a.obj, b.obj), compareAttrValues(a.val, b.val), cmp.Compare(a.id, b.id))
	})
	// A row per run of one (object, value), an interval per run of adjacent
	// segments inside it; counted first, so that the rows and all their
	// intervals are two allocations.
	startsRow := func(i int) bool { return i == 0 || occ[i].obj != occ[i-1].obj || occ[i].val != occ[i-1].val }
	startsIv := func(i int) bool { return startsRow(i) || occ[i].id != occ[i-1].id+1 }
	nRows, nIvs := 0, 0
	for i := range occ {
		if startsRow(i) {
			nRows++
		}
		if startsIv(i) {
			nIvs++
		}
	}
	if nRows == 0 {
		return vt, nil
	}
	vt.Rows = make([]core.ValueRow, 0, nRows)
	ivs := make([]interval.I, 0, nIvs)
	rowStart := 0
	for i, oc := range occ {
		if startsRow(i) {
			rowStart = len(ivs)
			vt.Rows = append(vt.Rows, core.ValueRow{Binding: oc.obj, Value: oc.val})
		}
		if startsIv(i) {
			ivs = append(ivs, interval.Point(oc.id))
		} else {
			ivs[len(ivs)-1].End = oc.id
		}
		vt.Rows[len(vt.Rows)-1].Ivs = ivs[rowStart:len(ivs):len(ivs)]
	}
	// Rows are ordered by object — core.ValueTable's contract, FreezeTable
	// finds an object's rows by binary search — and an object's rows by where
	// its values first appear: a row's first interval begins there.
	slices.SortFunc(vt.Rows, func(a, b core.ValueRow) int {
		return cmp.Or(cmp.Compare(a.Binding, b.Binding), cmp.Compare(a.Ivs[0].Beg, b.Ivs[0].Beg), compareAttrValues(a.Value, b.Value))
	})
	return vt, nil
}

// occurrence is one segment where an object carries a value of the attribute
// a value table is being built for.
type occurrence struct {
	obj simlist.ObjectID
	val core.AttrValue
	id  int32
}

// occurrencePool recycles ValueTable's sort buffer: the table is rebuilt per
// query per video for every freeze, and nothing of the buffer reaches it.
var occurrencePool = sync.Pool{New: func() any { return new([]occurrence) }}

// compareAttrValues is a total order on attribute values (strings before
// integers), for grouping equal values by sorting.
func compareAttrValues(a, b core.AttrValue) int {
	if a.IsInt != b.IsInt {
		if b.IsInt {
			return -1
		}
		return 1
	}
	return cmp.Or(cmp.Compare(a.Int, b.Int), cmp.Compare(a.Str, b.Str))
}

// appendIv extends the last interval when id is adjacent to it, otherwise
// starts a new run.
func appendIv(ivs []interval.I, id int32) []interval.I {
	if n := len(ivs); n > 0 && ivs[n-1].End+1 == id {
		ivs[n-1].End = id
		return ivs
	}
	return append(ivs, interval.Point(id))
}

// Ensure System satisfies the evaluator's Source contract.
var _ core.Source = (*System)(nil)

// Taxonomy returns the system's type taxonomy (shared with child sources).
func (s *System) Taxonomy() *Taxonomy { return s.tax }

// Weights returns the system's scoring weights.
func (s *System) Weights() Weights { return s.w }

// Video returns the underlying video.
func (s *System) Video() *metadata.Video { return s.video }
