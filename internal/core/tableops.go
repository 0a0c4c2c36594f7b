package core

import (
	"slices"
	"sort"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

// tableops implements the similarity-table algebra of §3.2–3.3: binary
// combination of two tables under a list operator (with a full outer join on
// the shared object variables so that partially matched evaluations keep
// their partial similarity, as §2.5's conjunction semantics requires), the
// freeze-operator join against a value table, and existential projection.
//
// These run once per and/until/freeze node per video, over tables of mostly
// one-entry lists, so what they cost is what they allocate. A table is stored
// by column (simlist.Table), and every operator here carves its output's
// entry column once, at its final size, from the evaluation's arena: the join
// and the freeze walk their input twice — count, then fill — and rows and
// evaluations are found through an open-addressing index of int32s (slots)
// instead of maps or string keys.

// listCombiner combines the similarity lists of two joined rows.
type listCombiner func(l1, l2 simlist.List) simlist.List

// appendCombiner is a listCombiner in appending form: it appends the
// combined list's entries to dst, which is empty.
type appendCombiner func(dst []simlist.Entry, l1, l2 simlist.List) []simlist.Entry

// joinSchema precomputes column alignment for a table join.
type joinSchema struct {
	objVars  []string
	attrVars []string
	// obj1/obj2 map output object columns to input columns (-1 = absent).
	obj1, obj2 []int
	att1, att2 []int
	// shared object columns as (col1, col2) index pairs, for hashing.
	sharedObj [][2]int
}

func makeJoinSchema(t1, t2 *simlist.Table) joinSchema {
	var s joinSchema
	s.objVars = unionVars(t1.ObjVars, t2.ObjVars)
	s.attrVars = unionVars(t1.AttrVars, t2.AttrVars)
	cols := make([]int, 2*(len(s.objVars)+len(s.attrVars)))
	s.obj1, cols = cols[:len(s.objVars)], cols[len(s.objVars):]
	s.obj2, cols = cols[:len(s.objVars)], cols[len(s.objVars):]
	s.att1, s.att2 = cols[:len(s.attrVars)], cols[len(s.attrVars):]
	for c, v := range s.objVars {
		s.obj1[c], s.obj2[c] = t1.ObjIndex(v), t2.ObjIndex(v)
		if s.obj1[c] >= 0 && s.obj2[c] >= 0 {
			s.sharedObj = append(s.sharedObj, [2]int{s.obj1[c], s.obj2[c]})
		}
	}
	for c, v := range s.attrVars {
		s.att1[c], s.att2[c] = t1.AttrIndex(v), t2.AttrIndex(v)
	}
	return s
}

// sharedHash hashes the bindings a row of table side (0 or 1) has in the
// shared object columns; wild reports a wildcard among them, which matches
// any binding and so cannot be hashed to one bucket.
func (s *joinSchema) sharedHash(bindings []simlist.ObjectID, side int) (h uint64, wild bool) {
	h = fnvOffset
	for _, p := range s.sharedObj {
		v := bindings[p[side]]
		if v == AnyObject {
			return 0, true
		}
		h = fnvMix(h, uint64(v))
	}
	return h, false
}

// sameShared reports whether the bindings b2 of a row of t2 equal, in every
// shared column, the bindings b of a row of table side.
func (s *joinSchema) sameShared(b2, b []simlist.ObjectID, side int) bool {
	for _, p := range s.sharedObj {
		if b2[p[1]] != b[p[side]] {
			return false
		}
	}
	return true
}

// joinable reports whether row i1 of t1 and row i2 of t2 join: no shared
// binding conflicts (AnyObject matches anything) and every shared attribute
// range intersection is satisfiable.
func (s *joinSchema) joinable(t1 *simlist.Table, i1 int, t2 *simlist.Table, i2 int) bool {
	b1, b2 := t1.Bindings(i1), t2.Bindings(i2)
	for _, p := range s.sharedObj {
		if a, b := b1[p[0]], b2[p[1]]; a != AnyObject && b != AnyObject && a != b {
			return false
		}
	}
	r1, r2 := t1.Ranges(i1), t2.Ranges(i2)
	for c := range s.attrVars {
		if s.att1[c] >= 0 && s.att2[c] >= 0 && r1[s.att1[c]].Intersect(r2[s.att2[c]]).IsEmpty() {
			return false
		}
	}
	return true
}

// putKeys writes the bindings and ranges of out's row r, the join of row i1
// of t1 and row i2 of t2; -1 is the side an outer row lacks, which
// contributes wildcard bindings and unconstrained ranges.
func (s *joinSchema) putKeys(out *simlist.Table, r int, t1 *simlist.Table, i1 int, t2 *simlist.Table, i2 int) {
	bindings, ranges := out.Bindings(r), out.Ranges(r)
	for c := range bindings {
		v := AnyObject
		if i1 >= 0 && s.obj1[c] >= 0 {
			v = t1.Bindings(i1)[s.obj1[c]]
		}
		if v == AnyObject && i2 >= 0 && s.obj2[c] >= 0 {
			v = t2.Bindings(i2)[s.obj2[c]]
		}
		bindings[c] = v
	}
	for c := range ranges {
		r := simlist.AnyRange()
		if i1 >= 0 && s.att1[c] >= 0 {
			r = r.Intersect(t1.Ranges(i1)[s.att1[c]])
		}
		if i2 >= 0 && s.att2[c] >= 0 {
			r = r.Intersect(t2.Ranges(i2)[s.att2[c]])
		}
		ranges[c] = r
	}
}

// CombineTables joins two similarity tables on their shared object-variable
// columns (equality, with AnyObject as wildcard) and shared attribute-
// variable columns (range intersection), combining the similarity lists of
// joined rows with op. Rows of either table that match no row of the other
// are kept — joined against an empty list, with wildcard bindings and
// unconstrained ranges for the other table's exclusive columns — so that
// partial satisfaction survives, matching the §2.5 semantics of ∧ (and of
// until, whose result is monotone in its left operand's coverage).
// Rows whose combined list is empty are dropped. maxSim is the maximum
// similarity of the combined formula.
func CombineTables(t1, t2 *simlist.Table, op listCombiner, maxSim float64) *simlist.Table {
	var e planEval
	return e.join(nil, t1, t2, maxSim, 2, func(dst []simlist.Entry, l1, l2 simlist.List) []simlist.Entry {
		return append(dst, op(l1, l2).Entries...)
	})
}

// join is CombineTables for the evaluator: op appends, and the merges it
// does are n's. A join cannot know its output's size — `and` emits up to
// 2·(n₁+n₂)−1 pieces for lists of n₁ and n₂ entries — so it walks its pairs
// twice: the first walk runs op into the arena's scratch to count the rows
// and entries that stay, the second writes them into columns of exactly that
// size. The scratch starts with room for pieces·(n₁+n₂) entries for the
// longest lists of t1 and t2.
func (e *planEval) join(n *PNode, t1, t2 *simlist.Table, maxSim float64, pieces int, op appendCombiner) *simlist.Table {
	s := makeJoinSchema(t1, t2)
	out := e.a.Table(s.objVars, s.attrVars, maxSim)
	n1, n2 := t1.Len(), t2.Len()

	// Chain t2's rows by their shared bindings — the index holds the first
	// row of a chain, next[i] the row after i, -1 the end — filling from the
	// back so that every chain ascends. Rows with a wildcard in a shared
	// column chain on their own; every probe walks them first. The same
	// take holds whether each row has matched.
	index, rest := makeSlots(e.a, n2, 2*n2)
	next, matched2 := rest[:n2], rest[n2:]
	wildFirst := int32(-1)
	for i := n2 - 1; i >= 0; i-- {
		b := t2.Bindings(i)
		if h, wild := s.sharedHash(b, 1); wild {
			next[i], wildFirst = wildFirst, int32(i)
		} else {
			at := index.find(h, func(j int32) bool { return s.sameShared(t2.Bindings(int(j)), b, 1) })
			next[i], index[at] = index[at], int32(i)
		}
	}

	// walk visits the output rows in order: t1's rows, each joined with its
	// partners (or alone), then t2's unmatched rows.
	walk := func(visit func(i1, i2 int)) {
		clear(matched2)
		for i1 := range n1 {
			matched1 := false
			probe := func(i2 int) {
				if s.joinable(t1, i1, t2, i2) {
					matched1, matched2[i2] = true, 1
					visit(i1, i2)
				}
			}
			// Candidate rows of t2: everything for a wildcard on our side;
			// otherwise the wildcard rows, then our chain.
			b := t1.Bindings(i1)
			if h, wild := s.sharedHash(b, 0); wild {
				for i2 := range n2 {
					probe(i2)
				}
			} else {
				for i2 := wildFirst; i2 >= 0; i2 = next[i2] {
					probe(int(i2))
				}
				at := index.find(h, func(j int32) bool { return s.sameShared(t2.Bindings(int(j)), b, 0) })
				for i2 := index[at]; i2 >= 0; i2 = next[i2] {
					probe(int(i2))
				}
			}
			if !matched1 {
				visit(i1, -1)
			}
		}
		for i2 := range n2 {
			if matched2[i2] == 0 {
				visit(-1, i2)
			}
		}
	}
	lists := func(i1, i2 int) (l1, l2 simlist.List, ranged bool) {
		l1, l2 = simlist.Empty(t1.MaxSim), simlist.Empty(t2.MaxSim)
		if i1 >= 0 {
			l1, ranged = t1.List(i1), constrained(t1.Ranges(i1))
		}
		if i2 >= 0 {
			l2, ranged = t2.List(i2), ranged || constrained(t2.Ranges(i2))
		}
		return l1, l2, ranged
	}

	rows, entries := 0, 0
	scratch := e.a.scratchOf(pieces * (longest(t1) + longest(t2)))
	walk(func(i1, i2 int) {
		e.opts.Prof.Merge(n)
		l1, l2, ranged := lists(i1, i2)
		list := op((*scratch)[:0], l1, l2)
		*scratch = list[:0]
		if keepRow(len(list), ranged) {
			rows, entries = rows+1, entries+len(list)
		}
	})
	if rows == 0 {
		return out
	}

	out.Objs = e.a.Bindings(rows * len(s.objVars))
	out.Rngs = e.a.Ranges(rows * len(s.attrVars))
	out.Off = e.a.Int32s(rows + 1)
	out.Entries = e.a.Entries(entries)
	r := 0
	walk(func(i1, i2 int) {
		l1, l2, ranged := lists(i1, i2)
		at := int(out.Off[r])
		list := op(out.Entries[at:at], l1, l2)
		if !keepRow(len(list), ranged) {
			return
		}
		if len(list) > 0 && &list[0] != &out.Entries[at] {
			copy(out.Entries[at:], list) // op outgrew the room on the way, never at the end
		}
		s.putKeys(out, r, t1, i1, t2, i2)
		r++
		out.Off[r] = int32(at + len(list))
	})
	return out
}

// longest returns the length of t's longest list.
func longest(t *simlist.Table) int {
	n := 0
	for i := range t.Len() {
		n = max(n, int(t.Off[i+1]-t.Off[i]))
	}
	return n
}

// keepRow decides whether a computed row stays in a table. Rows with empty
// similarity lists are usually useless, but when they constrain an attribute
// variable (ranged) they are coverage markers: a table's rows partition the
// attribute-variable space, and a later join or freeze must be able to land
// in the zero-similarity part of that partition.
func keepRow(entries int, ranged bool) bool { return entries > 0 || ranged }

// constrained reports whether any of ranges constrains its variable.
func constrained(ranges []simlist.Range) bool {
	for _, r := range ranges {
		if r.Kind != simlist.RangeAny {
			return true
		}
	}
	return false
}

// slots is an open-addressing hash table of indices, -1 marking an empty
// slot: a power of two in size, at most half full, probed linearly. What an
// index stands for — and so when two keys are the same — is the caller's.
type slots []int32

// makeSlots returns the slots for n indices and, in the same take, extra
// int32s for the caller.
func makeSlots(a *Arena, n, extra int) (slots, []int32) {
	size := 4
	for size < 2*n {
		size *= 2
	}
	buf := a.Int32s(size + extra)
	s := slots(buf[:size])
	for i := range s {
		s[i] = -1
	}
	return s, buf[size:]
}

// find returns the position of the slot, probing from hash h, that holds an
// index for which same is true, or else of the empty slot where it would go.
func (s slots) find(h uint64, same func(int32) bool) int {
	mask := uint64(len(s) - 1)
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		if s[i] < 0 || same(s[i]) {
			return int(i)
		}
	}
}

// ListRestrict keeps only the parts of l that fall inside the sorted
// disjoint intervals ivs.
func ListRestrict(l simlist.List, ivs []interval.I) simlist.List {
	return simlist.List{MaxSim: l.MaxSim, Entries: appendRestrict(nil, l.Entries, ivs)}
}

func appendRestrict(dst, entries []simlist.Entry, ivs []interval.I) []simlist.Entry {
	j := 0
	for _, e := range entries {
		for j < len(ivs) && ivs[j].End < e.Iv.Beg {
			j++
		}
		for k := j; k < len(ivs) && ivs[k].Beg <= e.Iv.End; k++ {
			if iv, ok := e.Iv.Intersect(ivs[k]); ok {
				dst = append(dst, simlist.Entry{Iv: iv, Act: e.Act})
			}
		}
	}
	return dst
}

// evalSet collects the distinct evaluations — bindings of the object
// variables, ranges of the attribute variables — of a table whose rows are
// being grouped, in first-seen order, with a count per evaluation of the
// entries its group will hold. Its key columns become the grouped table's.
type evalSet struct {
	a      *Arena             // where the columns are carved
	nb, nr int                // columns per evaluation
	ids    []simlist.ObjectID // evaluation i binds ids[i*nb : (i+1)*nb]
	rgs    []simlist.Range    // and ranges over rgs[i*nr : (i+1)*nr]
	count  []int32            // per evaluation, the caller's tally of entries; after carve, its region's fill mark
	index  slots              // the evaluations by hash
}

func (s *evalSet) bindings(i int) []simlist.ObjectID { return s.ids[i*s.nb : (i+1)*s.nb] }
func (s *evalSet) ranges(i int) []simlist.Range      { return s.rgs[i*s.nr : (i+1)*s.nr] }

func evalHash(bindings []simlist.ObjectID, ranges []simlist.Range) uint64 {
	h := uint64(fnvOffset)
	for _, b := range bindings {
		h = fnvMix(h, uint64(b))
	}
	for _, r := range ranges {
		h = fnvMix(fnvMix(fnvMix(h, uint64(r.Kind)), uint64(r.Lo)), uint64(r.Hi))
		for i := 0; i < len(r.Str); i++ {
			h = fnvMix(h, uint64(r.Str[i]))
		}
	}
	return h
}

// find returns the position of the evaluation, which it copies in when new.
func (s *evalSet) find(bindings []simlist.ObjectID, ranges []simlist.Range) int32 {
	if n := len(s.count); 2*(n+1) > len(s.index) {
		s.index, _ = makeSlots(s.a, 2*n, 0)
		for i := range n {
			s.index[s.index.find(evalHash(s.bindings(i), s.ranges(i)), func(int32) bool { return false })] = int32(i)
		}
	}
	at := s.index.find(evalHash(bindings, ranges), func(i int32) bool {
		return slices.Equal(s.bindings(int(i)), bindings) && slices.Equal(s.ranges(int(i)), ranges)
	})
	if s.index[at] >= 0 {
		return s.index[at]
	}
	i := int32(len(s.count))
	s.index[at] = i
	s.count = append(room(s.count, 1, s.a.Int32s), 0)
	s.ids = append(room(s.ids, len(bindings), s.a.Bindings), bindings...)
	s.rgs = append(room(s.rgs, len(ranges), s.a.Ranges), ranges...)
	return i
}

// carve cuts an entry column with a region per evaluation, as long as its
// count, and turns the counts into the regions' fill marks; off bounds the
// regions.
func (s *evalSet) carve() (entries []simlist.Entry, off []int32) {
	off = s.a.Int32s(len(s.count) + 1)
	for i, n := range s.count {
		off[i+1] = off[i] + n
		s.count[i] = off[i]
	}
	return s.a.Entries(int(off[len(s.count)])), off
}

// table finishes the table whose row i is evaluation i with the entries in
// region i of a carved column: in one pass, each region is normalized where
// it lies and moved down over what the regions before it gave up, and a row
// keepRow drops gives up its keys the same way.
func (s *evalSet) table(objVars, attrVars []string, maxSim float64, entries []simlist.Entry, off []int32) *simlist.Table {
	out := s.a.Table(objVars, attrVars, maxSim)
	col, rows, lo := entries[:0], 0, int32(0)
	own := false // col has moved off entries' array
	for i := range s.count {
		hi := off[i+1]
		list := simlist.NormalizeInPlace(maxSim, entries[lo:hi])
		lo = hi
		if !keepRow(len(list), constrained(s.ranges(i))) {
			continue
		}
		if !own && len(col)+len(list) > int(hi) {
			// The sweep split a region into more runs than it had entries.
			col = append(make([]simlist.Entry, 0, len(col)+len(list)+len(entries)-int(hi)), col...)
			own = true
		}
		col = append(col, list...)
		copy(s.bindings(rows), s.bindings(i))
		copy(s.ranges(rows), s.ranges(i))
		rows++
		off[rows] = int32(len(col))
	}
	if rows > 0 {
		out.Objs, out.Rngs, out.Entries, out.Off = s.ids[:rows*s.nb], s.rgs[:rows*s.nr], col, off[:rows+1]
	}
	return out
}

// One FNV-1a step over a 64-bit word.
const fnvOffset = 14695981039346656037

func fnvMix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// FreezeTable applies the §3.3 freeze join: t1 is the similarity table of
// the freeze operand with attribute-variable column y; vt is the value table
// of the frozen attribute function q (with object variable qVar, "" for a
// segment attribute). A row of t1 joins a value row when the bindings of
// qVar agree and the value lies in the row's y-range; the row's list is
// restricted to the ids where that value holds. The y column disappears;
// a column for qVar is added when t1 lacks it. Rows with identical output
// evaluations are merged by pointwise maximum, in first-seen order.
//
// A freeze whose variable y is not free in the operand is no identity: y is
// then unconstrained, every value row of the run joins, and the result is
// the operand restricted to where q is defined (DESIGN.md §7.5).
//
// The joining pairs are walked twice. A row's value rows are the one run of
// the binding-sorted value table its binding of qVar selects (all of it for
// a wildcard). The first walk files every pair under its output evaluation
// and counts the entries it will contribute; then one column is carved into
// a region per evaluation, the second walk restricts the pairs' lists
// straight into their regions, and evalSet.table normalizes and compacts.
func FreezeTable(t1 *simlist.Table, y string, vt *ValueTable, qVar string) *simlist.Table {
	return freezeTable(nil, t1, y, vt, qVar)
}

// freezeTable is FreezeTable on an arena.
func freezeTable(a *Arena, t1 *simlist.Table, y string, vt *ValueTable, qVar string) *simlist.Table {
	yIdx := t1.AttrIndex(y)
	zIdx := -1
	objVars := append([]string(nil), t1.ObjVars...)
	if qVar != "" {
		zIdx = t1.ObjIndex(qVar)
		if zIdx < 0 {
			objVars = append(objVars, qVar)
		}
	}
	attrVars := make([]string, 0, len(t1.AttrVars))
	for _, v := range t1.AttrVars {
		if v != y {
			attrVars = append(attrVars, v)
		}
	}
	// zCol is the output column the value row's binding lands in.
	zCol := zIdx
	if qVar != "" && zIdx < 0 {
		zCol = len(objVars) - 1
	}

	groups := evalSet{a: a, nb: len(objVars), nr: len(attrVars)}
	bindings, ranges := a.Bindings(groups.nb), a.Ranges(groups.nr)
	walk := func(visit func(group int32, entries []simlist.Entry, ivs []interval.I)) {
		// Consecutive rows mostly bind the same object and differ in their
		// y-range alone: the object's run and the group are kept.
		runOf, runLo, runHi := AnyObject, 0, 0
		g := int32(-1)
		for ri := range t1.Len() {
			rb := t1.Bindings(ri)
			lo, hi := 0, len(vt.Rows)
			if zIdx >= 0 && rb[zIdx] != AnyObject {
				if b := rb[zIdx]; b != runOf {
					runOf = b
					runLo, runHi = vt.run(b)
				}
				lo, hi = runLo, runHi
			}
			// The row's ranges before and after y's; with no y, y is free.
			yr, pre, post := simlist.AnyRange(), t1.Ranges(ri), []simlist.Range(nil)
			if yIdx >= 0 {
				yr, post, pre = pre[yIdx], pre[yIdx+1:], pre[:yIdx]
			}
			// The row's output evaluation, but for the value row's binding.
			if g < 0 || !slices.Equal(bindings[:len(rb)], rb) ||
				!slices.Equal(ranges[:len(pre)], pre) || !slices.Equal(ranges[len(pre):], post) {
				copy(bindings, rb)
				copy(ranges, pre)
				copy(ranges[len(pre):], post)
				g = -1
			}
			for vi := lo; vi < hi; vi++ {
				vr := &vt.Rows[vi]
				if !vr.Value.InRange(yr) {
					continue
				}
				if g < 0 || (zCol >= 0 && bindings[zCol] != vr.Binding) {
					if zCol >= 0 {
						bindings[zCol] = vr.Binding
					}
					g = groups.find(bindings, ranges)
				}
				visit(g, t1.List(ri).Entries, vr.Ivs)
			}
		}
	}

	scratch := a.scratchOf(0)
	walk(func(g int32, entries []simlist.Entry, ivs []interval.I) {
		*scratch = appendRestrict((*scratch)[:0], entries, ivs)
		groups.count[g] += int32(len(*scratch))
	})
	entries, off := groups.carve()
	walk(func(g int32, list []simlist.Entry, ivs []interval.I) {
		at := groups.count[g]
		groups.count[g] += int32(len(appendRestrict(entries[at:at], list, ivs)))
	})
	return groups.table(objVars, attrVars, t1.MaxSim, entries, off)
}

// run returns the half-open range of vt's rows bound to b: rows are sorted by
// binding, so it is one run, found by binary search.
func (vt *ValueTable) run(b simlist.ObjectID) (lo, hi int) {
	lo = sort.Search(len(vt.Rows), func(i int) bool { return vt.Rows[i].Binding >= b })
	for hi = lo; hi < len(vt.Rows) && vt.Rows[hi].Binding == b; hi++ {
	}
	return lo, hi
}

// ProjectMax existentially projects a similarity table onto a single
// similarity list: at each id the maximum over all evaluations (§2.5's
// semantics of ∃, §3.2's second part). It reads t and leaves it as it is;
// EvalPlanCtx projects the table it built itself in place instead.
func ProjectMax(t *simlist.Table) simlist.List {
	all := make([]simlist.Entry, len(t.Entries))
	copy(all, t.Entries)
	return maxMergeOwned(t.MaxSim, all)
}
