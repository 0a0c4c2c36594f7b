package core

import (
	"sync"
	"unsafe"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

// Arena is the memory one evaluation builds its tables in. Every table of an
// evaluation but the list it returns is dead once the evaluation returns, so
// EvalPlanCtx takes an arena from a pool, carves every column, table header,
// value table, memo and join index of the evaluation from it, copies the
// result out, and clears the arena and puts it back. The reference evaluator
// (internal/refeval) does the same with its per-segment memo rows, through
// AcquireArena and ReleaseArena. An arena is memory, not a cache: no content
// survives a release, so a cold query still computes every table.
//
// It holds one buffer (a slab) per column type. A take is the next n elements
// of its slab, zeroed and capped at n, so that an append past them moves to
// the heap instead of into the next take; a take that does not fit goes to the
// heap whole, and the slab is regrown at release to hold everything the
// evaluation took. An arena belongs to one evaluation on one goroutine.
//
// Sources write the tables they hand the evaluator into the arena they are
// given (Source.EvalAtomicNode, Source.ValueTable). A nil *Arena allocates
// every take from the heap: tables built on it belong to the caller, which is
// how EvalTable, CombineTables, FreezeTable and picture's EvalAtomic return
// tables their callers keep.
type Arena struct {
	tables  slab[simlist.Table]
	values  slab[ValueTable]
	memo    slab[*simlist.Table]
	entries slab[simlist.Entry]
	objs    slab[simlist.ObjectID]
	rngs    slab[simlist.Range]
	ints    slab[int32]
	rows    slab[ValueRow]
	ivs     slab[interval.I]
	floats  slab[float64]
	fRows   slab[[]float64]
	// scratch is where a join runs its list operator to count, and a freeze
	// its restriction; it holds the longest lists the evaluation has joined.
	scratch []simlist.Entry
}

// maxPooledArena bounds, in bytes, the arena the pool keeps: an evaluation
// that leaves its arena larger drops it. The largest MIX6 evaluation of one
// video of the serving benchmark's corpus (C10k: 64 videos × 16 scenes × 10
// shots) takes 61.7 KiB (63 148 bytes, `conj` over video 33's shots;
// TestArenaSizeOfMIX6; the reference evaluator's `general` takes 6 528 bytes
// of float64 rows), so the bound is about sixteen of those. Without it
// one Table 5-sized evaluation (100 000 shots) would pin megabytes per P for
// as long as the pool holds the arena.
const maxPooledArena = 1 << 20

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// AcquireArena takes an arena from the pool EvalPlanCtx uses, for an
// evaluator outside this package; the evaluation owns it until ReleaseArena.
func AcquireArena() *Arena { return arenaPool.Get().(*Arena) }

// ReleaseArena clears a and puts it back in the pool, unless it has grown past
// maxPooledArena. Nothing carved from a may be read after it. Not to be
// deferred: after a panic the arena is left to the collector, in whatever
// state the panic found it.
func ReleaseArena(a *Arena) (kept bool) {
	if a.release() > maxPooledArena {
		return false
	}
	arenaPool.Put(a)
	return true
}

// slab is an arena's buffer of one element type: takes are cut from buf in
// order, and need is what the evaluation has taken in all, fitted or not.
type slab[T any] struct {
	buf        []T
	used, need int
}

func (s *slab[T]) take(n int) []T {
	s.need += n
	if s.used+n > len(s.buf) {
		return make([]T, n)
	}
	t := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	return t
}

// reset zeroes what was taken and returns the bytes the slab needs to hold
// every take of the evaluation.
func (s *slab[T]) reset() int {
	clear(s.buf[:s.used])
	s.used = 0
	var zero T
	return max(len(s.buf), s.need) * int(unsafe.Sizeof(zero))
}

// fit regrows the slab to what the evaluation took.
func (s *slab[T]) fit() {
	if s.need > len(s.buf) {
		s.buf = make([]T, s.need)
	}
	s.need = 0
}

// release clears the arena and returns the bytes it needs to hold every take
// of the evaluation just done; it regrows its slabs to that when it is no
// more than maxPooledArena, and leaves an arena it will not keep as it is.
func (a *Arena) release() (size int) {
	clear(a.scratch[:cap(a.scratch)])
	size = a.tables.reset() + a.values.reset() + a.memo.reset() + a.entries.reset() + a.objs.reset() +
		a.rngs.reset() + a.ints.reset() + a.rows.reset() + a.ivs.reset() + a.floats.reset() + a.fRows.reset() +
		cap(a.scratch)*int(unsafe.Sizeof(simlist.Entry{}))
	if size > maxPooledArena {
		return size
	}
	a.tables.fit()
	a.values.fit()
	a.memo.fit()
	a.entries.fit()
	a.objs.fit()
	a.rngs.fit()
	a.ints.fit()
	a.rows.fit()
	a.ivs.fit()
	a.floats.fit()
	a.fRows.fit()
	return size
}

// Table returns an empty table with the given schema and maximum similarity.
func (a *Arena) Table(objVars, attrVars []string, maxSim float64) *simlist.Table {
	if a == nil {
		return simlist.NewTable(objVars, attrVars, maxSim)
	}
	t := &a.tables.take(1)[0]
	t.ObjVars, t.AttrVars, t.MaxSim = objVars, attrVars, maxSim
	return t
}

// ValueTable returns an empty value table of the object variable v.
func (a *Arena) ValueTable(v string) *ValueTable {
	if a == nil {
		return &ValueTable{Var: v}
	}
	vt := &a.values.take(1)[0]
	vt.Var = v
	return vt
}

// Entries returns an entry column of n zero entries.
func (a *Arena) Entries(n int) []simlist.Entry {
	if a == nil {
		return make([]simlist.Entry, n)
	}
	return a.entries.take(n)
}

// Bindings returns a binding column of n zero bindings.
func (a *Arena) Bindings(n int) []simlist.ObjectID {
	if a == nil {
		return make([]simlist.ObjectID, n)
	}
	return a.objs.take(n)
}

// Ranges returns a range column of n zero ranges.
func (a *Arena) Ranges(n int) []simlist.Range {
	if a == nil {
		return make([]simlist.Range, n)
	}
	return a.rngs.take(n)
}

// Int32s returns n zero int32s: an offset column or an index.
func (a *Arena) Int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return a.ints.take(n)
}

// ValueRows returns n zero value-table rows.
func (a *Arena) ValueRows(n int) []ValueRow {
	if a == nil {
		return make([]ValueRow, n)
	}
	return a.rows.take(n)
}

// Intervals returns n zero intervals.
func (a *Arena) Intervals(n int) []interval.I {
	if a == nil {
		return make([]interval.I, n)
	}
	return a.ivs.take(n)
}

// Float64s returns n zero float64s: a row of per-segment similarities.
func (a *Arena) Float64s(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.floats.take(n)
}

// Float64Rows returns n nil float64 rows: the header of a per-node memo.
func (a *Arena) Float64Rows(n int) [][]float64 {
	if a == nil {
		return make([][]float64, n)
	}
	return a.fRows.take(n)
}

// memoOf returns an evaluation's memo, a table per plan node.
func (a *Arena) memoOf(nodes int) []*simlist.Table {
	if a == nil {
		return make([]*simlist.Table, nodes)
	}
	return a.memo.take(nodes)
}

// scratchOf returns the arena's scratch list with room for n entries.
func (a *Arena) scratchOf(n int) *[]simlist.Entry {
	if a == nil {
		s := make([]simlist.Entry, 0, n)
		return &s
	}
	if cap(a.scratch) < n {
		a.scratch = make([]simlist.Entry, 0, n)
	}
	return &a.scratch
}

// room returns s with room for n more elements: s itself, or its elements
// moved to the front of a take of twice its capacity.
func room[T any](s []T, n int, take func(int) []T) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	t := take(max(2*cap(s), len(s)+n, 4))
	return t[:copy(t, s)]
}
