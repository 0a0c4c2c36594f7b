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
//
// Rows are ordered by object — core.ValueTable's contract, FreezeTable finds
// an object's rows by binary search — and an object's rows by where its
// values first appear (two values first seen in one segment, which only an
// object listed twice in it gives, by compareAttrValues). The build is
// linear in the occurrences: they are met in segment order, so a row's
// intervals come out ascending, and only the distinct objects are sorted.
func (s *System) ValueTable(q htl.AttrFn, a *core.Arena) (*core.ValueTable, error) {
	vt := a.ValueTable(q.Of)
	b := valueTableBuilders.Get().(*valueTableBuilder)
	defer b.release()
	for i, n := range s.seq {
		if q.Of == "" {
			if v, ok := n.Meta.Attrs[q.Attr]; ok {
				b.occ = append(b.occ, occurrence{core.AnyObject, toAttrValue(v), int32(i + 1)})
			}
			continue
		}
		for oi := range n.Meta.Objects {
			o := &n.Meta.Objects[oi]
			if bv := objAttr(o, q.Attr); bv.Defined {
				b.occ = append(b.occ, occurrence{simlist.ObjectID(o.ID), bv.Val, int32(i + 1)})
			}
		}
	}
	if len(b.occ) == 0 {
		return vt, nil
	}
	nIvs := b.rowsInFirstAppearance()
	b.orderByObject()
	// The rows and all their intervals are two takes; each row's intervals
	// are its share of the second, filled in segment order.
	vt.Rows = a.ValueRows(len(b.rows))
	ivs := a.Intervals(nIvs)
	off := 0
	for c, r := range b.rows {
		vt.Rows[b.pos[c]] = core.ValueRow{Binding: r.obj, Value: r.val, Ivs: ivs[off : off : off+r.ivs]}
		off += r.ivs
	}
	for i, oc := range b.occ {
		row := &vt.Rows[b.pos[b.rowOfOcc[i]]]
		if n := len(row.Ivs); n > 0 && row.Ivs[n-1].End+1 == oc.id {
			row.Ivs[n-1].End = oc.id
		} else {
			row.Ivs = append(row.Ivs, interval.Point(oc.id))
		}
	}
	return vt, nil
}

// occurrence is one segment where an object carries a value of the attribute
// a value table is being built for.
type occurrence struct {
	obj simlist.ObjectID
	val core.AttrValue
	id  int32
}

// valueRow is one row of a value table being built: its object and value,
// the first and last segments met so far, and its interval count.
type valueRow struct {
	obj         simlist.ObjectID
	val         core.AttrValue
	first, last int32
	ivs         int
}

// strKey identifies a row of a string value; a row of an integer value is
// found by its object and value as a [2]int64, which hashes in one step.
type strKey struct {
	obj simlist.ObjectID
	val string
}

// valueTableBuilder is ValueTable's scratch. It is pooled and keeps nothing
// of a build but its capacity: the table is rebuilt per query per video for
// every freeze, and none of the scratch reaches it.
type valueTableBuilder struct {
	occ []occurrence
	// rows are in creation order, the order their values first appear in;
	// rowOfOcc is each occurrence's row, and intRow and strRow find a row by
	// its object and value.
	rows     []valueRow
	rowOfOcc []int32
	intRow   map[[2]int64]int32
	strRow   map[strKey]int32
	// pos is each row's place in the table; order is the inverse, the rows
	// in table order. objs, objAt and start sort the rows by object.
	pos, order []int32
	objs       []simlist.ObjectID
	objAt      map[simlist.ObjectID]int32
	start      []int32
}

var valueTableBuilders = sync.Pool{New: func() any {
	return &valueTableBuilder{intRow: map[[2]int64]int32{}, strRow: map[strKey]int32{}, objAt: map[simlist.ObjectID]int32{}}
}}

// release clears what holds a value string or an object and pools b.
func (b *valueTableBuilder) release() {
	clear(b.occ)
	clear(b.rows)
	clear(b.intRow)
	clear(b.strRow)
	clear(b.objAt)
	b.occ, b.rows, b.rowOfOcc = b.occ[:0], b.rows[:0], b.rowOfOcc[:0]
	b.pos, b.order, b.objs, b.start = b.pos[:0], b.order[:0], b.objs[:0], b.start[:0]
	valueTableBuilders.Put(b)
}

// rowsInFirstAppearance makes a row per (object, value) in the order the
// occurrences meet them, points every occurrence at its row, and counts each
// row's intervals, a run of adjacent segments each; it returns their total.
func (b *valueTableBuilder) rowsInFirstAppearance() int {
	total := 0
	for _, oc := range b.occ {
		var r int32
		var ok bool
		if oc.val.IsInt {
			k := [2]int64{int64(oc.obj), oc.val.Int}
			if r, ok = b.intRow[k]; !ok {
				r = int32(len(b.rows))
				b.intRow[k] = r
			}
		} else {
			k := strKey{oc.obj, oc.val.Str}
			if r, ok = b.strRow[k]; !ok {
				r = int32(len(b.rows))
				b.strRow[k] = r
			}
		}
		if !ok {
			b.rows = append(b.rows, valueRow{obj: oc.obj, val: oc.val, first: oc.id})
		}
		row := &b.rows[r]
		if !ok || oc.id != row.last+1 {
			row.ivs++
			total++
		}
		row.last = oc.id
		b.rowOfOcc = append(b.rowOfOcc, r)
	}
	return total
}

// orderByObject places the rows (pos, order): by object, each object's rows
// keeping their creation order — a counting sort over the sorted distinct
// objects — and then ordering the rows of one object first seen in one
// segment by value.
func (b *valueTableBuilder) orderByObject() {
	n := len(b.rows)
	b.pos, b.order = slices.Grow(b.pos, n)[:n], slices.Grow(b.order, n)[:n]
	for _, r := range b.rows {
		if _, ok := b.objAt[r.obj]; !ok {
			b.objAt[r.obj] = 0
			b.objs = append(b.objs, r.obj)
		}
	}
	slices.Sort(b.objs)
	b.start = slices.Grow(b.start, len(b.objs)+1)[:len(b.objs)+1]
	clear(b.start)
	for i, o := range b.objs {
		b.objAt[o] = int32(i)
	}
	for _, r := range b.rows {
		b.start[b.objAt[r.obj]+1]++
	}
	for i := 1; i < len(b.start); i++ {
		b.start[i] += b.start[i-1]
	}
	for c, r := range b.rows {
		i := b.objAt[r.obj]
		b.order[b.start[i]] = int32(c)
		b.start[i]++
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && b.rows[b.order[hi]].obj == b.rows[b.order[lo]].obj && b.rows[b.order[hi]].first == b.rows[b.order[lo]].first {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(b.order[lo:hi], func(x, y int32) int { return compareAttrValues(b.rows[x].val, b.rows[y].val) })
		}
		lo = hi
	}
	for p, c := range b.order {
		b.pos[c] = int32(p)
	}
}

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
