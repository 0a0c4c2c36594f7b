package picture

import (
	"slices"
	"sync"

	"htlvideo/internal/core"
	"htlvideo/internal/htl"
	"htlvideo/internal/interval"
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
// an object's rows by binary search — and an object's rows by where their
// values first appear (an object has one value per segment: NewSystem
// refuses a video listing an object twice in one). The build reads the
// index, only the segments posted for the attribute, and is linear in the
// occurrences: they are met in segment order, so a row's intervals come out
// ascending, and only the distinct objects are sorted.
func (s *System) ValueTable(q htl.AttrFn, a *core.Arena) (*core.ValueTable, error) {
	vt := a.ValueTable(q.Of)
	b := valueTableBuilders.Get().(*valueTableBuilder)
	defer b.release()
	switch {
	case q.Of == "":
		if name := s.id(kindSegAttr, q.Attr); name >= 0 {
			for _, id := range s.posting(name) {
				v, _ := lookup(s.rowFacts(s.segRow[id-1]), name)
				b.occ = append(b.occ, occurrence{core.AnyObject, v, id})
			}
		}
	default:
		// Every object has a type, its first fact, whose "value" is its id
		// in the dictionary.
		b.types = q.Attr == typeAttr
		name, posted := s.id(kindObjAttr, q.Attr), s.id(kindObjects, "")
		if !b.types {
			posted = name
		}
		if posted < 0 {
			break
		}
		for _, id := range s.posting(posted) {
			seg := s.segRow[id-1]
			for j, o := range s.seq[id-1].Meta.Objects {
				facts := s.rowFacts(objectRow(seg, int32(j)))
				v, ok := facts[0].name, b.types
				if !ok {
					v, ok = lookup(facts, name)
				}
				if ok {
					b.occ = append(b.occ, occurrence{simlist.ObjectID(o.ID), v, id})
				}
			}
		}
	}
	if len(b.occ) == 0 {
		return vt, nil
	}
	nIvs := b.rowsInFirstAppearance(s)
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
// a value table is being built for: the value as a fact holds it, or the
// type's name id.
type occurrence struct {
	obj simlist.ObjectID
	val int32
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

// valueTableBuilder is ValueTable's scratch. It is pooled and keeps nothing
// of a build but its capacity: the table is rebuilt per query per video for
// every freeze, and none of the scratch reaches it.
type valueTableBuilder struct {
	occ   []occurrence
	types bool // occ holds type name ids, not value ids
	// rows are in creation order, the order their values first appear in;
	// rowOfOcc is each occurrence's row, and rowOf finds a row by its object
	// and value id.
	rows     []valueRow
	rowOfOcc []int32
	rowOf    map[[2]int64]int32
	// pos is each row's place in the table; order is the inverse, the rows
	// in table order. objs, objAt and start sort the rows by object.
	pos, order []int32
	objs       []simlist.ObjectID
	objAt      map[simlist.ObjectID]int32
	start      []int32
}

var valueTableBuilders = sync.Pool{New: func() any {
	return &valueTableBuilder{rowOf: map[[2]int64]int32{}, objAt: map[simlist.ObjectID]int32{}}
}}

// release clears what holds a value string or an object and pools b.
func (b *valueTableBuilder) release() {
	clear(b.occ)
	clear(b.rows)
	clear(b.rowOf)
	clear(b.objAt)
	b.types = false
	b.occ, b.rows, b.rowOfOcc = b.occ[:0], b.rows[:0], b.rowOfOcc[:0]
	b.pos, b.order, b.objs, b.start = b.pos[:0], b.order[:0], b.objs[:0], b.start[:0]
	valueTableBuilders.Put(b)
}

// rowsInFirstAppearance makes a row per (object, value) in the order the
// occurrences meet them, points every occurrence at its row, and counts each
// row's intervals, a run of adjacent segments each; it returns their total.
func (b *valueTableBuilder) rowsInFirstAppearance(s *System) int {
	total := 0
	for _, oc := range b.occ {
		k := [2]int64{int64(oc.obj), int64(oc.val)}
		r, ok := b.rowOf[k]
		if !ok {
			r = int32(len(b.rows))
			b.rowOf[k] = r
			var val core.AttrValue
			if b.types {
				val = core.AttrValue{Str: s.names[oc.val]}
			} else {
				val = s.value(oc.val)
			}
			b.rows = append(b.rows, valueRow{obj: oc.obj, val: val, first: oc.id})
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
// objects.
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
	for p, c := range b.order {
		b.pos[c] = int32(p)
	}
}

// Ensure System satisfies the evaluator's Source contract.
var _ core.Source = (*System)(nil)
