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
// function q over this sequence, carved from a. For q(x) there is one row per
// (object, value) pair with the id intervals where the object is present
// carrying that value; for a segment attribute, one row per value, bound to
// no object. The attribute's type (`type(x)`) is exposed like any other
// attribute.
func (s *System) ValueTable(q htl.AttrFn, a *core.Arena) (*core.ValueTable, error) {
	vt := a.ValueTable(q.Of)

	// Every occurrence of the attribute, grouped by sorting: by object, then
	// value, then segment, so that each row's occurrences are contiguous and
	// ascending.
	scratch := occurrencePool.Get().(*[]occurrence)
	occ := (*scratch)[:0]
	defer func() {
		clear(occ) // drop the value strings
		*scratch = occ
		occurrencePool.Put(scratch)
	}()
	for i, n := range s.seq {
		if q.Of == "" {
			if v, ok := n.Meta.Attrs[q.Attr]; ok {
				occ = append(occ, occurrence{core.AnyObject, toAttrValue(v), int32(i + 1)})
			}
			continue
		}
		for oi := range n.Meta.Objects {
			o := &n.Meta.Objects[oi]
			if b := objAttr(o, q.Attr); b.Defined {
				occ = append(occ, occurrence{simlist.ObjectID(o.ID), b.Val, int32(i + 1)})
			}
		}
	}
	slices.SortFunc(occ, func(x, y occurrence) int {
		return cmp.Or(cmp.Compare(x.obj, y.obj), compareAttrValues(x.val, y.val), cmp.Compare(x.id, y.id))
	})
	// A row per run of one (object, value), an interval per run of adjacent
	// segments inside it; counted first, so that the rows and all their
	// intervals are two takes.
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
	vt.Rows = a.ValueRows(nRows)[:0]
	ivs := a.Intervals(nIvs)[:0]
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
	slices.SortFunc(vt.Rows, func(x, y core.ValueRow) int {
		return cmp.Or(cmp.Compare(x.Binding, y.Binding), cmp.Compare(x.Ivs[0].Beg, y.Ivs[0].Beg), compareAttrValues(x.Value, y.Value))
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

// Ensure System satisfies the evaluator's Source contract.
var _ core.Source = (*System)(nil)

// Taxonomy returns the system's type taxonomy (shared with child sources).
func (s *System) Taxonomy() *Taxonomy { return s.tax }

// Weights returns the system's scoring weights.
func (s *System) Weights() Weights { return s.w }

// Video returns the underlying video.
func (s *System) Video() *metadata.Video { return s.video }
