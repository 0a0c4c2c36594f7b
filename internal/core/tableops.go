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
// one-entry lists, so what they cost is what they allocate: the slices the
// output rows retain — bindings, ranges, entries — are cut from one block
// per table (block.go) sized from the inputs, rows and evaluations are indexed
// by hash instead of by freshly built string keys, and nothing is pooled
// across calls.

// listCombiner combines the similarity lists of two joined rows. Where the
// result's entries live is the combiner's business: the evaluator's append
// them to the block of the table being joined.
type listCombiner func(l1, l2 simlist.List) simlist.List

// joinSchema precomputes column alignment for a table join.
type joinSchema struct {
	objVars  []string
	attrVars []string
	// obj1/obj2 map output object columns to input columns (-1 = absent).
	obj1, obj2 []int
	att1, att2 []int
	// shared object columns as (col1, col2) index pairs, for hashing.
	sharedObj [][2]int
	// The output rows' bindings and ranges.
	ids block[simlist.ObjectID]
	rgs block[simlist.Range]
}

func makeJoinSchema(t1, t2 *simlist.Table) *joinSchema {
	s := new(joinSchema)
	s.objVars = append(s.objVars, t1.ObjVars...)
	for _, v := range t2.ObjVars {
		if t1.ObjIndex(v) < 0 {
			s.objVars = append(s.objVars, v)
		}
	}
	s.attrVars = append(s.attrVars, t1.AttrVars...)
	for _, v := range t2.AttrVars {
		if t1.AttrIndex(v) < 0 {
			s.attrVars = append(s.attrVars, v)
		}
	}
	for _, v := range s.objVars {
		i1, i2 := t1.ObjIndex(v), t2.ObjIndex(v)
		s.obj1 = append(s.obj1, i1)
		s.obj2 = append(s.obj2, i2)
		if i1 >= 0 && i2 >= 0 {
			s.sharedObj = append(s.sharedObj, [2]int{i1, i2})
		}
	}
	for _, v := range s.attrVars {
		s.att1 = append(s.att1, t1.AttrIndex(v))
		s.att2 = append(s.att2, t2.AttrIndex(v))
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
	s := makeJoinSchema(t1, t2)
	out := simlist.NewTable(s.objVars, s.attrVars, maxSim)
	if n := max(len(t1.Rows), len(t2.Rows)); n > 0 {
		out.Rows = make([]simlist.Row, 0, n)
		s.ids.reserve(n * len(s.objVars))
		s.rgs.reserve(n * len(s.attrVars))
	}

	// Chain t2's rows by the hash of their shared bindings — first[h] is the
	// first row of a chain, next[i] the row after i, -1 the end — filling from
	// the back so that every chain ascends. A hash collision only lengthens a
	// chain: joinRows compares the bindings themselves. Rows with a wildcard
	// in a shared column chain on their own; every probe walks them first.
	first := make(map[uint64]int32, len(t2.Rows))
	next := make([]int32, len(t2.Rows))
	wildFirst := int32(-1)
	for i := len(t2.Rows) - 1; i >= 0; i-- {
		if h, wild := s.sharedHash(t2.Rows[i].Bindings, 1); wild {
			next[i], wildFirst = wildFirst, int32(i)
		} else {
			if f, ok := first[h]; ok {
				next[i] = f
			} else {
				next[i] = -1
			}
			first[h] = int32(i)
		}
	}

	matched2 := make([]bool, len(t2.Rows))
	empty1 := simlist.Empty(t1.MaxSim)
	empty2 := simlist.Empty(t2.MaxSim)

	// A row that stays takes its bindings and ranges off the blocks; one that
	// is dropped leaves them to the next.
	emit := func(row simlist.Row) {
		if keepRow(row) {
			row.Bindings, row.Ranges = s.ids.keep(row.Bindings), s.rgs.keep(row.Ranges)
			out.Rows = append(out.Rows, row)
		}
	}
	for _, r1 := range t1.Rows {
		matched1 := false
		probe := func(i2 int) {
			if row, ok := joinRows(s, r1, t2.Rows[i2], op); ok {
				matched1, matched2[i2] = true, true
				emit(row)
			}
		}
		// Candidate rows of t2: everything for a wildcard on our side;
		// otherwise the wildcard rows, then our hash chain.
		if h, wild := s.sharedHash(r1.Bindings, 0); wild {
			for i2 := range t2.Rows {
				probe(i2)
			}
		} else {
			for i2 := wildFirst; i2 >= 0; i2 = next[i2] {
				probe(int(i2))
			}
			if f, ok := first[h]; ok {
				for i2 := f; i2 >= 0; i2 = next[i2] {
					probe(int(i2))
				}
			}
		}
		if !matched1 {
			emit(outerRow(s, r1, nil, op, empty2))
		}
	}
	for i2 := range t2.Rows {
		if !matched2[i2] {
			emit(outerRow(s, simlist.Row{}, &t2.Rows[i2], op, empty1))
		}
	}
	return out
}

// keepRow decides whether a computed row stays in a table. Rows with empty
// similarity lists are usually useless, but when they constrain an attribute
// variable they are coverage markers: a table's rows partition the
// attribute-variable space, and a later join or freeze must be able to land
// in the zero-similarity part of that partition.
func keepRow(row simlist.Row) bool {
	if !row.List.IsEmpty() {
		return true
	}
	for _, r := range row.Ranges {
		if r.Kind != simlist.RangeAny {
			return true
		}
	}
	return false
}

// joinRows attempts to join one row from each table; ok is false when the
// shared bindings conflict or a shared attribute range intersection is
// empty. The row's bindings and ranges lie in the blocks' open room: they are
// the row's only once CombineTables keeps them.
func joinRows(s *joinSchema, r1, r2 simlist.Row, op listCombiner) (simlist.Row, bool) {
	for _, p := range s.sharedObj {
		a, b := r1.Bindings[p[0]], r2.Bindings[p[1]]
		if a != AnyObject && b != AnyObject && a != b {
			return simlist.Row{}, false
		}
	}
	bindings := s.ids.open(len(s.objVars))[:len(s.objVars)]
	for c := range s.objVars {
		v := AnyObject
		if s.obj1[c] >= 0 {
			v = r1.Bindings[s.obj1[c]]
		}
		if v == AnyObject && s.obj2[c] >= 0 {
			v = r2.Bindings[s.obj2[c]]
		}
		bindings[c] = v
	}
	ranges := s.rgs.open(len(s.attrVars))[:len(s.attrVars)]
	for c := range s.attrVars {
		r := simlist.AnyRange()
		if s.att1[c] >= 0 {
			r = r.Intersect(r1.Ranges[s.att1[c]])
		}
		if s.att2[c] >= 0 {
			r = r.Intersect(r2.Ranges[s.att2[c]])
		}
		if r.IsEmpty() {
			return simlist.Row{}, false
		}
		ranges[c] = r
	}
	return simlist.Row{Bindings: bindings, Ranges: ranges, List: op(r1.List, r2.List)}, true
}

// outerRow builds the outer-join row for an unmatched r1 (when r2 == nil) or
// unmatched r2 (when r2 != nil); the other side contributes the given empty
// list, wildcard bindings and unconstrained ranges.
func outerRow(s *joinSchema, r1 simlist.Row, r2 *simlist.Row, op listCombiner, other simlist.List) simlist.Row {
	bindings := s.ids.open(len(s.objVars))[:len(s.objVars)]
	ranges := s.rgs.open(len(s.attrVars))[:len(s.attrVars)]
	for c := range bindings {
		bindings[c] = AnyObject
	}
	for c := range ranges {
		ranges[c] = simlist.AnyRange()
	}
	var list simlist.List
	if r2 == nil {
		for c := range s.objVars {
			if s.obj1[c] >= 0 {
				bindings[c] = r1.Bindings[s.obj1[c]]
			}
		}
		for c := range s.attrVars {
			if s.att1[c] >= 0 {
				ranges[c] = r1.Ranges[s.att1[c]]
			}
		}
		list = op(r1.List, other)
	} else {
		for c := range s.objVars {
			if s.obj2[c] >= 0 {
				bindings[c] = r2.Bindings[s.obj2[c]]
			}
		}
		for c := range s.attrVars {
			if s.att2[c] >= 0 {
				ranges[c] = r2.Ranges[s.att2[c]]
			}
		}
		list = op(other, r2.List)
	}
	return simlist.Row{Bindings: bindings, Ranges: ranges, List: list}
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
// being grouped, in first-seen order, with a tally per evaluation of the
// entries its group will hold. Evaluations are found by hash and compared
// themselves, so a collision only lengthens a chain.
type evalSet struct {
	nb, nr  int                // columns per evaluation
	ids     []simlist.ObjectID // evaluation i binds ids[i*nb : (i+1)*nb]
	rgs     []simlist.Range    // and ranges over rgs[i*nr : (i+1)*nr]
	entries []int              // per evaluation, the caller's tally
	first   map[uint64]int32   // by hash, the first evaluation of a chain
	next    []int32            // per evaluation, the next of its chain or -1
}

// rows returns one row per evaluation, in order: its bindings and ranges,
// each clipped to itself, and an empty list with room for the entries tallied
// — a region of one array cut for all of them.
func (s *evalSet) rows() []simlist.Row {
	total := 0
	for _, n := range s.entries {
		total += n
	}
	regions := make([]simlist.Entry, total)
	rows := make([]simlist.Row, len(s.entries))
	for i, n := range s.entries {
		rows[i].Bindings = s.ids[i*s.nb : (i+1)*s.nb : (i+1)*s.nb]
		rows[i].Ranges = s.rgs[i*s.nr : (i+1)*s.nr : (i+1)*s.nr]
		rows[i].List.Entries, regions = regions[:0:n], regions[n:]
	}
	return rows
}

// index returns the position of the evaluation, which it copies in when new.
func (s *evalSet) index(bindings []simlist.ObjectID, ranges []simlist.Range) int32 {
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
	head, ok := s.first[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = s.next[i] {
		if slices.Equal(s.ids[int(i)*s.nb:int(i+1)*s.nb], bindings) && slices.Equal(s.rgs[int(i)*s.nr:int(i+1)*s.nr], ranges) {
			return i
		}
	}
	if s.first == nil {
		s.first = map[uint64]int32{}
	}
	i := int32(len(s.next))
	s.first[h] = i
	s.next = append(s.next, head)
	s.entries = append(s.entries, 0)
	s.ids = append(s.ids, bindings...)
	s.rgs = append(s.rgs, ranges...)
	return i
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
// The joining pairs are walked twice. A row's value rows are the one run of
// the binding-sorted value table its binding of qVar selects (all of it for
// a wildcard). The first walk files every pair under its output evaluation
// and counts the entries it will contribute; then one array is cut into a
// region per evaluation, the second walk restricts the pairs' lists straight
// into their regions, and every region is normalized where it lies.
func FreezeTable(t1 *simlist.Table, y string, vt *ValueTable, qVar string) *simlist.Table {
	yIdx := t1.AttrIndex(y)
	if yIdx < 0 {
		// y is not free in the operand: the freeze is vacuous.
		return t1
	}
	zIdx := -1
	objVars := append([]string(nil), t1.ObjVars...)
	if qVar != "" {
		zIdx = t1.ObjIndex(qVar)
		if zIdx < 0 {
			objVars = append(objVars, qVar)
		}
	}
	attrVars := make([]string, 0, len(t1.AttrVars)-1)
	for _, v := range t1.AttrVars {
		if v != y {
			attrVars = append(attrVars, v)
		}
	}
	out := simlist.NewTable(objVars, attrVars, t1.MaxSim)
	// zCol is the output column the value row's binding lands in.
	zCol := zIdx
	if qVar != "" && zIdx < 0 {
		zCol = len(objVars) - 1
	}

	groups := evalSet{nb: len(objVars), nr: len(attrVars)}
	bindings, ranges := make([]simlist.ObjectID, groups.nb), make([]simlist.Range, groups.nr)
	walk := func(visit func(group int32, entries []simlist.Entry, ivs []interval.I)) {
		// Consecutive rows mostly bind the same object and differ in their
		// y-range alone: the object's run and the group are kept.
		runOf, runLo, runHi := AnyObject, 0, 0
		g := int32(-1)
		for ri := range t1.Rows {
			r1 := &t1.Rows[ri]
			lo, hi := 0, len(vt.Rows)
			if zIdx >= 0 && r1.Bindings[zIdx] != AnyObject {
				if b := r1.Bindings[zIdx]; b != runOf {
					runOf = b
					runLo, runHi = vt.run(b)
				}
				lo, hi = runLo, runHi
			}
			// r1's output evaluation, but for the value row's binding.
			if g < 0 || !slices.Equal(bindings[:len(r1.Bindings)], r1.Bindings) ||
				!slices.Equal(ranges[:yIdx], r1.Ranges[:yIdx]) || !slices.Equal(ranges[yIdx:], r1.Ranges[yIdx+1:]) {
				copy(bindings, r1.Bindings)
				copy(ranges, r1.Ranges[:yIdx])
				copy(ranges[yIdx:], r1.Ranges[yIdx+1:])
				g = -1
			}
			for vi := lo; vi < hi; vi++ {
				vr := &vt.Rows[vi]
				if !vr.Value.InRange(r1.Ranges[yIdx]) {
					continue
				}
				if g < 0 || (zCol >= 0 && bindings[zCol] != vr.Binding) {
					if zCol >= 0 {
						bindings[zCol] = vr.Binding
					}
					g = groups.index(bindings, ranges)
				}
				visit(g, r1.List.Entries, vr.Ivs)
			}
		}
	}

	var scratch []simlist.Entry
	walk(func(g int32, entries []simlist.Entry, ivs []interval.I) {
		scratch = appendRestrict(scratch[:0], entries, ivs)
		groups.entries[g] += len(scratch)
	})
	out.Rows = groups.rows()
	walk(func(g int32, entries []simlist.Entry, ivs []interval.I) {
		l := &out.Rows[g].List
		l.Entries = appendRestrict(l.Entries, entries, ivs)
	})
	kept := out.Rows[:0]
	for _, row := range out.Rows {
		row.List = simlist.List{MaxSim: t1.MaxSim, Entries: simlist.NormalizeInPlace(t1.MaxSim, row.List.Entries)}
		if keepRow(row) {
			kept = append(kept, row)
		}
	}
	out.Rows = kept
	return out
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
// semantics of ∃, §3.2's second part).
func ProjectMax(t *simlist.Table) simlist.List {
	all := make([]simlist.Entry, 0, entryCount(t))
	for i := range t.Rows {
		all = append(all, t.Rows[i].List.Entries...)
	}
	return maxMergeOwned(t.MaxSim, all)
}
