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
// It panics if the invariants do not hold; use Normalize for untrusted input.
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
	prevEnd := 0
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

// Len returns the number of entries (the paper's length(L)).
func (l List) Len() int { return len(l.Entries) }

// IsEmpty reports whether the list has no entries.
func (l List) IsEmpty() bool { return len(l.Entries) == 0 }

// At returns the similarity value at segment id. Ids outside every entry get
// actual similarity 0.
func (l List) At(id int) Sim {
	// Binary search for the first entry ending at or after id.
	i := sort.Search(len(l.Entries), func(i int) bool { return l.Entries[i].Iv.End >= id })
	if i < len(l.Entries) && l.Entries[i].Iv.Contains(id) {
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

// Clone returns a deep copy of the list.
func (l List) Clone() List {
	out := List{MaxSim: l.MaxSim}
	out.Entries = append([]Entry(nil), l.Entries...)
	return out
}

// Canonical returns an equivalent list in canonical form: entries sorted,
// disjoint, and adjacent entries with equal similarity merged into one.
// The receiver must already satisfy Validate; canonicalization only merges.
func (l List) Canonical() List {
	if len(l.Entries) == 0 {
		return List{MaxSim: l.MaxSim}
	}
	out := List{MaxSim: l.MaxSim, Entries: make([]Entry, 0, len(l.Entries))}
	cur := l.Entries[0]
	for _, e := range l.Entries[1:] {
		if cur.Iv.Adjacent(e.Iv) && cur.Act == e.Act {
			cur.Iv.End = e.Iv.End
			continue
		}
		out.Entries = append(out.Entries, cur)
		cur = e
	}
	out.Entries = append(out.Entries, cur)
	return out
}

// sweepEvent is one boundary of Normalize's sweep line.
type sweepEvent struct {
	pos   int
	act   float64
	enter bool
}

// sweepScratch pools Normalize's transient state (the event list, the
// lazy-deletion heap, the alive multiset). Normalize sits under every merge
// and level-modal aggregation, so these buffers churn hard; nothing in the
// scratch escapes into the returned list.
type sweepScratch struct {
	events []sweepEvent
	heap   maxHeap
	alive  map[float64]int
}

var sweepPool = sync.Pool{New: func() any {
	return &sweepScratch{alive: map[float64]int{}}
}}

// Normalize builds a valid list from arbitrary entries: it drops non-positive
// similarities, sorts by beginning id, resolves overlaps by keeping the
// maximum similarity on the overlap, clamps Act to maxSim, and merges equal
// adjacent runs. It is intended for ingesting untrusted or generator data.
func Normalize(maxSim float64, entries []Entry) List {
	if ordered(entries) {
		// Nothing to sort and no overlap to resolve — what the picture layer
		// and the level-modal aggregation hand in (ascending point entries):
		// clamp and merge equal adjacent runs in one pass.
		out := List{MaxSim: maxSim}
		for _, e := range entries {
			if e.Act <= 0 || !e.Iv.Valid() {
				continue
			}
			e.Act = min(e.Act, maxSim)
			if out.Entries == nil {
				out.Entries = make([]Entry, 0, len(entries))
			}
			if n := len(out.Entries); n > 0 && out.Entries[n-1].Iv.Adjacent(e.Iv) && out.Entries[n-1].Act == e.Act {
				out.Entries[n-1].Iv.End = e.Iv.End
				continue
			}
			out.Entries = append(out.Entries, e)
		}
		return out
	}
	// Sweep line over entry boundaries, keeping the maximum similarity among
	// the entries covering each elementary run. Overlap resolution uses a
	// lazy-deletion max-heap, so the whole pass is O(k log k).
	sc := sweepPool.Get().(*sweepScratch)
	defer func() {
		sc.events = sc.events[:0]
		sc.heap = sc.heap[:0]
		clear(sc.alive)
		sweepPool.Put(sc)
	}()
	events := sc.events[:0]
	for _, e := range entries {
		if e.Act <= 0 || !e.Iv.Valid() {
			continue
		}
		if e.Act > maxSim {
			e.Act = maxSim
		}
		events = append(events,
			sweepEvent{pos: e.Iv.Beg, act: e.Act, enter: true},
			sweepEvent{pos: e.Iv.End + 1, act: e.Act, enter: false})
	}
	sc.events = events
	// Equal positions are consumed as one group below, so the sort need not
	// be stable.
	slices.SortFunc(events, func(a, b sweepEvent) int { return cmp.Compare(a.pos, b.pos) })

	sc.heap = sc.heap[:0]
	heap := &sc.heap
	alive := sc.alive
	out := List{MaxSim: maxSim}
	i := 0
	for i < len(events) {
		pos := events[i].pos
		for i < len(events) && events[i].pos == pos {
			ev := events[i]
			if ev.enter {
				alive[ev.act]++
				heap.push(ev.act)
			} else {
				alive[ev.act]--
			}
			i++
		}
		// Discard heap tops that have fully exited.
		for heap.len() > 0 && alive[heap.top()] <= 0 {
			heap.pop()
		}
		cur := 0.0
		if heap.len() > 0 {
			cur = heap.top()
		}
		next := 1<<63 - 1
		if i < len(events) {
			next = events[i].pos
		}
		if cur > 0 && pos <= next-1 {
			out.Entries = append(out.Entries, Entry{Iv: interval.I{Beg: pos, End: next - 1}, Act: cur})
		}
	}
	return out.Canonical()
}

// ordered reports whether the entries Normalize would keep are ascending and
// pairwise disjoint.
func ordered(entries []Entry) bool {
	end, first := 0, true
	for _, e := range entries {
		if e.Act <= 0 || !e.Iv.Valid() {
			continue
		}
		if !first && e.Iv.Beg <= end {
			return false
		}
		end, first = e.Iv.End, false
	}
	return true
}

// maxHeap is a minimal float64 max-heap used by Normalize's sweep.
type maxHeap []float64

func (h maxHeap) len() int     { return len(h) }
func (h maxHeap) top() float64 { return h[0] }
func (h *maxHeap) push(v float64) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] >= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *maxHeap) pop() float64 {
	s := *h
	topVal := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && s[l] > s[big] {
			big = l
		}
		if r < n && s[r] > s[big] {
			big = r
		}
		if big == i {
			break
		}
		s[i], s[big] = s[big], s[i]
		i = big
	}
	*h = s
	return topVal
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
		lo := max(e.Iv.Beg, 1)
		hi := min(e.Iv.End, n)
		for id := lo; id <= hi; id++ {
			out[id-1] = e.Act
		}
	}
	return out
}

// FromDense builds a canonical list from dense per-id actual similarities
// (index i holds the similarity of segment id i+1). Zero values are omitted.
func FromDense(maxSim float64, dense []float64) List {
	l := List{MaxSim: maxSim}
	i := 0
	for i < len(dense) {
		if dense[i] <= 0 {
			i++
			continue
		}
		j := i
		for j+1 < len(dense) && dense[j+1] == dense[i] {
			j++
		}
		l.Entries = append(l.Entries, Entry{Iv: interval.I{Beg: i + 1, End: j + 1}, Act: dense[i]})
		i = j + 1
	}
	return l
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
