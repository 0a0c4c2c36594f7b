// Package simlist implements similarity values, similarity lists and
// similarity tables — the data structures of paper §3.
//
// A similarity list is a relation of entries
//
//	([beg-id, end-id], (act-sim, max-sim))
//
// stating that a formula has actual similarity act-sim at every video segment
// whose id lies in [beg-id, end-id]. Ids not covered by any entry have actual
// similarity zero, so only non-zero runs are stored. max-sim depends only on
// the formula, so it is held once per list rather than per entry.
//
// A similarity table (paper §3.2–3.3) extends a list with an evaluation: each
// row binds the formula's free object variables to object ids, constrains its
// free attribute variables to value ranges, and carries the similarity list
// that holds under that evaluation.
package simlist

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"htlvideo/internal/interval"
)

// Sim is a similarity value: the pair (actual, maximum) of paper §2.5.
// For an exact match Act == Max; the fractional similarity is Act/Max.
type Sim struct {
	Act float64
	Max float64
}

// Frac returns the fractional similarity Act/Max, or 0 when Max == 0.
func (s Sim) Frac() float64 {
	if s.Max == 0 {
		return 0
	}
	return s.Act / s.Max
}

// Entry is one row of a similarity list: a run of segment ids sharing the
// same actual similarity value.
type Entry struct {
	Iv  interval.I
	Act float64
}

// List is a similarity list. Entries are sorted by Iv.Beg, pairwise disjoint,
// and carry strictly positive actual similarities not exceeding MaxSim.
type List struct {
	// MaxSim is the maximum possible similarity of the formula this list was
	// computed for. It is shared by every entry (paper §3.1).
	MaxSim  float64
	Entries []Entry
}

// NewList builds a list from entries that are already sorted and disjoint.
// It panics if the invariants do not hold; use NormalizeInPlace for
// untrusted input.
func NewList(maxSim float64, entries ...Entry) List {
	l := List{MaxSim: maxSim, Entries: entries}
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return l
}

// Empty returns an empty list (everywhere-zero similarity) with the given
// maximum.
func Empty(maxSim float64) List { return List{MaxSim: maxSim} }

// Validate checks the list invariants: entries sorted by beginning id,
// pairwise disjoint intervals, each interval valid, and 0 < Act <= MaxSim.
func (l List) Validate() error {
	var prevEnd int32
	first := true
	for i, e := range l.Entries {
		if !e.Iv.Valid() {
			return fmt.Errorf("simlist: entry %d has invalid interval %v", i, e.Iv)
		}
		if !first && e.Iv.Beg <= prevEnd {
			return fmt.Errorf("simlist: entry %d interval %v overlaps or is out of order (prev end %d)", i, e.Iv, prevEnd)
		}
		if e.Act <= 0 {
			return fmt.Errorf("simlist: entry %d has non-positive similarity %g", i, e.Act)
		}
		const eps = 1e-9
		if e.Act > l.MaxSim+eps {
			return fmt.Errorf("simlist: entry %d similarity %g exceeds maximum %g", i, e.Act, l.MaxSim)
		}
		prevEnd = e.Iv.End
		first = false
	}
	return nil
}

// At returns the similarity value at segment id. Ids outside every entry get
// actual similarity 0.
func (l List) At(id int) Sim {
	// Binary search for the first entry ending at or after id.
	i := sort.Search(len(l.Entries), func(i int) bool { return int(l.Entries[i].Iv.End) >= id })
	if i < len(l.Entries) && int(l.Entries[i].Iv.Beg) <= id && id <= int(l.Entries[i].Iv.End) {
		return Sim{Act: l.Entries[i].Act, Max: l.MaxSim}
	}
	return Sim{Act: 0, Max: l.MaxSim}
}

// Span returns the smallest interval covering all entries. ok is false for an
// empty list.
func (l List) Span() (interval.I, bool) {
	if len(l.Entries) == 0 {
		return interval.I{}, false
	}
	return interval.I{Beg: l.Entries[0].Iv.Beg, End: l.Entries[len(l.Entries)-1].Iv.End}, true
}

// Canonical returns an equivalent list in canonical form: entries sorted,
// disjoint, and adjacent entries with equal similarity merged into one.
// The receiver must already satisfy Validate; canonicalization only merges.
// It copies: an operator that builds a list appends it canonical in the first
// place (AppendEntry); Canonical is for callers that do not own their input.
func (l List) Canonical() List {
	if len(l.Entries) == 0 {
		return List{MaxSim: l.MaxSim}
	}
	out := make([]Entry, 0, len(l.Entries))
	for _, e := range l.Entries {
		out = AppendEntry(out, e)
	}
	return List{MaxSim: l.MaxSim, Entries: out}
}

// AppendEntry appends e to dst, the entries of one list under construction,
// and returns the extended slice. e must lie after every entry of dst; it is
// folded into the last one when the two are adjacent with equal similarity,
// so a list built through AppendEntry alone is canonical as it stands.
func AppendEntry(dst []Entry, e Entry) []Entry {
	if n := len(dst); n > 0 && dst[n-1].Act == e.Act && dst[n-1].Iv.Adjacent(e.Iv) {
		dst[n-1].Iv.End = e.Iv.End
		return dst
	}
	return append(dst, e)
}

// NormalizeInPlace builds the entries of a valid list from arbitrary ones: it
// drops non-positive similarities, sorts by beginning id, resolves overlaps
// by keeping the maximum similarity on the overlap, clamps Act to maxSim, and
// merges equal adjacent runs. The caller owns entries and gives them up: the
// result is built in their storage — reordered, overwritten — and is nil
// when nothing remains. Entries that come ascending and disjoint
// (what the picture layer and the level-modal aggregation produce) cost one
// pass; disjoint ones in any order a sort on top; only overlapping ones, which
// can split into more runs than there were entries, move to a new slice.
func NormalizeInPlace(maxSim float64, entries []Entry) []Entry {
	s := entries[:0]
	for _, e := range entries {
		if e.Act > 0 && e.Iv.Valid() {
			e.Act = min(e.Act, maxSim)
			s = append(s, e)
		}
	}
	if !ascending(s) {
		slices.SortFunc(s, func(a, b Entry) int { return cmp.Compare(a.Iv.Beg, b.Iv.Beg) })
		if !ascending(s) {
			return sweep(s)
		}
	}
	out := s[:0]
	for _, e := range s {
		out = AppendEntry(out, e)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ascending reports whether every entry begins after its predecessor ends.
func ascending(s []Entry) bool {
	for i := 1; i < len(s); i++ {
		if s[i].Iv.Beg <= s[i-1].Iv.End {
			return false
		}
	}
	return true
}

// sweep resolves the overlaps of s, which is sorted by beginning id, keeping
// the maximum similarity wherever entries overlap. The entries covering the
// current position wait in a max-heap on similarity whose expired tops are
// dropped lazily — O(k log k) — and the heap lives in the prefix of s the
// sweep has already read. The runs come out on a pooled buffer and move back
// into s once it is read to the end; only a result with more runs than there
// were entries needs a slice of its own.
func sweep(s []Entry) []Entry {
	buf := sweepPool.Get().(*[]Entry)
	out := (*buf)[:0]
	heap, next, pos := s[:0], 0, int32(0)
	for next < len(s) || len(heap) > 0 {
		if len(heap) == 0 {
			pos = s[next].Iv.Beg
		}
		for ; next < len(s) && s[next].Iv.Beg <= pos; next++ {
			heap = pushMax(heap, s[next]) // len(heap) <= next: the slot is free
		}
		for len(heap) > 0 && heap[0].Iv.End < pos {
			heap = popMax(heap)
		}
		if len(heap) == 0 {
			continue
		}
		// The top holds until it ends or another entry begins.
		end := heap[0].Iv.End
		if next < len(s) && s[next].Iv.Beg <= end {
			end = s[next].Iv.Beg - 1
		}
		out = AppendEntry(out, Entry{Iv: interval.I{Beg: pos, End: end}, Act: heap[0].Act})
		pos = end + 1
	}
	if len(out) <= len(s) {
		s = s[:copy(s, out)]
	} else {
		s = slices.Clone(out)
	}
	*buf = out
	sweepPool.Put(buf)
	return s
}

// sweepPool recycles sweep's output buffer. The existential collapse of a
// table and most groups of a freeze join overlap, so the sweep runs per video
// and per group; EXPERIMENTS.md "§3 kernel (PR 23)" has the bytes with and
// without the pool.
var sweepPool = sync.Pool{New: func() any { return new([]Entry) }}

// pushMax and popMax keep a max-heap of entries on Act for the sweep.
func pushMax(h []Entry, e Entry) []Entry {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].Act >= h[i].Act {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popMax(h []Entry) []Entry {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		big := i
		if l := 2*i + 1; l < n && h[l].Act > h[big].Act {
			big = l
		}
		if r := 2*i + 2; r < n && h[r].Act > h[big].Act {
			big = r
		}
		if big == i {
			return h
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Equal reports whether two lists denote the same similarity function, i.e.
// they have the same maximum and the same canonical entries.
func Equal(a, b List) bool {
	if a.MaxSim != b.MaxSim {
		return false
	}
	ca, cb := a.Canonical(), b.Canonical()
	if len(ca.Entries) != len(cb.Entries) {
		return false
	}
	for i := range ca.Entries {
		if ca.Entries[i] != cb.Entries[i] {
			return false
		}
	}
	return true
}

// EqualApprox is Equal with a tolerance on similarity values (for comparing
// results computed along different floating-point paths, e.g. SQL vs direct).
func EqualApprox(a, b List, eps float64) bool {
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	if abs(a.MaxSim-b.MaxSim) > eps {
		return false
	}
	ca, cb := a.CanonicalApprox(eps), b.CanonicalApprox(eps)
	if len(ca.Entries) != len(cb.Entries) {
		return false
	}
	for i := range ca.Entries {
		if ca.Entries[i].Iv != cb.Entries[i].Iv || abs(ca.Entries[i].Act-cb.Entries[i].Act) > eps {
			return false
		}
	}
	return true
}

// CanonicalApprox merges adjacent entries whose similarities differ by at
// most eps.
func (l List) CanonicalApprox(eps float64) List {
	if len(l.Entries) == 0 {
		return List{MaxSim: l.MaxSim}
	}
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	out := List{MaxSim: l.MaxSim, Entries: make([]Entry, 0, len(l.Entries))}
	cur := l.Entries[0]
	for _, e := range l.Entries[1:] {
		if cur.Iv.Adjacent(e.Iv) && abs(cur.Act-e.Act) <= eps {
			cur.Iv.End = e.Iv.End
			continue
		}
		out.Entries = append(out.Entries, cur)
		cur = e
	}
	out.Entries = append(out.Entries, cur)
	return out
}

// Expand returns the dense per-id similarity over [1, n]: a slice of n
// actual-similarity values indexed by id-1. Used by the reference evaluator
// and tests; production code works on intervals.
func (l List) Expand(n int) []float64 {
	out := make([]float64, n)
	for _, e := range l.Entries {
		lo := max(int(e.Iv.Beg), 1)
		hi := min(int(e.Iv.End), n)
		for id := lo; id <= hi; id++ {
			out[id-1] = e.Act
		}
	}
	return out
}

// FromDense builds a canonical list from dense per-id actual similarities
// (index i holds the similarity of segment id i+1). Zero values are omitted.
// The runs are counted first, so the list owns exactly the entries it has —
// the reference evaluator hands it straight to callers that retain it.
func FromDense(maxSim float64, dense []float64) List {
	l := List{MaxSim: maxSim}
	runs := 0
	for i, v := range dense {
		if v > 0 && (i == 0 || dense[i-1] != v) {
			runs++
		}
	}
	if runs == 0 {
		return l
	}
	l.Entries = AppendDense(make([]Entry, 0, runs), dense)
	return l
}

// AppendDense appends to dst the runs of a dense row — dense[i] the
// similarity at segment i+1, zero where it does not hold — and returns the
// extended slice; dst must hold no entry at or after segment 1.
func AppendDense(dst []Entry, dense []float64) []Entry {
	for i, v := range dense {
		if v > 0 {
			dst = AppendEntry(dst, Entry{Iv: interval.Point(int32(i + 1)), Act: v})
		}
	}
	return dst
}

// String renders the list in the paper's notation, e.g.
// "([10 24], (10, 20)); ([25 60], (15, 20))".
func (l List) String() string {
	var b strings.Builder
	for i, e := range l.Entries {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "(%v, (%g, %g))", e.Iv, e.Act, l.MaxSim)
	}
	if len(l.Entries) == 0 {
		b.WriteString("(empty)")
	}
	return b.String()
}
