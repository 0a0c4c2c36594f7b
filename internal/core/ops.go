// Package core implements the paper's primary contribution (§3): the
// similarity-list generator. It provides the interval-based algorithms for
// the temporal connectives on similarity lists (type (1) formulas, §3.1),
// the similarity-table algorithms with object-variable joins (type (2),
// §3.2), value-table joins for the freeze operator (full conjunctive, §3.3),
// the recursive treatment of level-modal operators (extended conjunctive),
// and top-k retrieval.
package core

import (
	"math"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

// Every operator below has one loop, in its appending form: it writes the
// entries of its result once, in ascending order and canonical as they land
// (simlist.AppendEntry), onto an empty slice the caller supplies — the free
// tail of the entry column of the table being built (tableops.go), or a
// slice of the right size for the exported allocating forms, which are
// wrappers and nothing more.

// AndLists combines the similarity lists of g and h into the list of g ∧ h:
// at every id the actual similarities add (§2.5), so ids on one list only
// keep their value — a conjunction is partially satisfied even when one
// conjunct is not satisfied at all. The maximum similarity is m1 + m2.
//
// The implementation is the paper's "modified merge" over the two sorted
// entry slices and runs in O(len(l1) + len(l2)).
func AndLists(l1, l2 simlist.List) simlist.List {
	dst := make([]simlist.Entry, 0, len(l1.Entries)+len(l2.Entries))
	return listOf(l1.MaxSim+l2.MaxSim, appendAnd(dst, l1, l2))
}

// appendAnd is AndLists in its appending form.
func appendAnd(dst []simlist.Entry, l1, l2 simlist.List) []simlist.Entry {
	return appendPointwise(dst, l1, l2, pointwiseSum)
}

// pointwiseMode selects how appendPointwise combines the two values at an id.
type pointwiseMode uint8

const (
	// pointwiseSum is the conjunction: a1 + a2.
	pointwiseSum pointwiseMode = iota
	// pointwiseMax is not a conjunction: max(a1, a2), the existential
	// collapse of two lists, which shares the merge below.
	pointwiseMax
)

// listOf wraps the entries an operator appended; an empty list holds no slice.
func listOf(maxSim float64, entries []simlist.Entry) simlist.List {
	if len(entries) == 0 {
		entries = nil
	}
	return simlist.List{MaxSim: maxSim, Entries: entries}
}

// appendPointwise appends the list whose value at every id is f of the two
// lists' values there. It can emit up to 2·(len(l1)+len(l2))−1 pieces — every
// boundary of either list starts one — so len(l1)+len(l2) is the size to
// expect, not a bound.
func appendPointwise(dst []simlist.Entry, l1, l2 simlist.List, f pointwiseMode) []simlist.Entry {
	e1, e2 := l1.Entries, l2.Entries
	i, j := 0, 0
	// pos is the next id not yet emitted.
	pos := minBeg(e1, e2)
	for i < len(e1) || j < len(e2) {
		// Advance past entries that ended before pos.
		if i < len(e1) && e1[i].Iv.End < pos {
			i++
			continue
		}
		if j < len(e2) && e2[j].Iv.End < pos {
			j++
			continue
		}
		// Determine the value of each side at pos and the next boundary.
		var a, b float64
		segEnd := int32(math.MaxInt32)
		if i < len(e1) {
			if e1[i].Iv.Beg <= pos {
				a = e1[i].Act
				segEnd = min(segEnd, e1[i].Iv.End)
			} else {
				segEnd = min(segEnd, e1[i].Iv.Beg-1)
			}
		}
		if j < len(e2) {
			if e2[j].Iv.Beg <= pos {
				b = e2[j].Act
				segEnd = min(segEnd, e2[j].Iv.End)
			} else {
				segEnd = min(segEnd, e2[j].Iv.Beg-1)
			}
		}
		v := a + b
		if f == pointwiseMax {
			v = max(a, b)
		}
		if v > 0 {
			dst = simlist.AppendEntry(dst, simlist.Entry{Iv: interval.I{Beg: pos, End: segEnd}, Act: v})
		}
		pos = segEnd + 1
	}
	return dst
}

func minBeg(e1, e2 []simlist.Entry) int32 {
	switch {
	case len(e1) == 0 && len(e2) == 0:
		return 0
	case len(e1) == 0:
		return e2[0].Iv.Beg
	case len(e2) == 0:
		return e1[0].Iv.Beg
	default:
		return min(e1[0].Iv.Beg, e2[0].Iv.Beg)
	}
}

// NextList computes the list of `next g` from the list of g: an entry of g
// over [u, v] becomes an entry over [u-1, v-1] (§3.1). Ids below 1 fall off
// the sequence; the last segment of the video gets similarity 0 naturally,
// since g can have no entry beyond the sequence.
func NextList(l simlist.List) simlist.List {
	return listOf(l.MaxSim, appendNext(make([]simlist.Entry, 0, len(l.Entries)), l))
}

func appendNext(dst []simlist.Entry, l simlist.List) []simlist.Entry {
	for _, e := range l.Entries {
		if iv, ok := e.Iv.Shift(-1).ClampLow(1); ok {
			dst = simlist.AppendEntry(dst, simlist.Entry{Iv: iv, Act: e.Act})
		}
	}
	return dst
}

// EventuallyList computes the list of `eventually g`: the similarity at id i
// is the maximum similarity of g at any id >= i (the suffix maximum), which
// is non-increasing in i. Segment ids start at 1 (§3.1), so coverage extends
// down to id 1.
func EventuallyList(l simlist.List) simlist.List {
	return listOf(l.MaxSim, appendEventually(make([]simlist.Entry, 0, len(l.Entries)), l))
}

// appendEventually walks g's entries left to right; what it has appended is
// a stack of pieces with strictly decreasing similarity that tile [1, end of
// the last entry read]. An entry swallows every piece it is at least as
// similar as — they lie to its left, so it is their suffix maximum too — and
// covers from where the first of them began. Each entry is pushed once and
// popped at most once: O(len(l)), never more pieces than entries.
func appendEventually(dst []simlist.Entry, l simlist.List) []simlist.Entry {
	base, beg := len(dst), int32(1)
	for _, e := range l.Entries {
		dst, beg = pushSuffixMax(dst, base, beg, e.Iv.End, e.Act)
	}
	return dst
}

// pushSuffixMax pushes the piece [beg, end] with similarity act onto the
// stack dst[base:] of a suffix-maximum scan (see appendEventually; `until`
// runs the same scan inside every run of its left operand) and returns the
// id the next piece begins at. A piece that is empty because the entry ends
// where its predecessor did still swallows what it dominates.
func pushSuffixMax(dst []simlist.Entry, base int, beg, end int32, act float64) ([]simlist.Entry, int32) {
	for n := len(dst); n > base && dst[n-1].Act <= act; n = len(dst) {
		beg = dst[n-1].Iv.Beg
		dst = dst[:n-1]
	}
	if beg <= end {
		dst = append(dst, simlist.Entry{Iv: interval.I{Beg: beg, End: end}, Act: act})
	}
	return dst, end + 1
}

// DefaultUntilThreshold is the minimum fractional similarity the left side
// of `until` must reach to count as "satisfied" while waiting for the right
// side (§2.5 leaves the threshold open; 0.5 is this library's default).
const DefaultUntilThreshold = 0.5

// UntilLists computes the list of `g until h` (§3.1). tau is the threshold
// on g's fractional similarity. The similarity of the result at id i is the
// maximum similarity of h at any id u” >= i reachable from i through
// segments where g's fractional similarity is >= tau; the maximum similarity
// of the result is that of h.
//
// The paper's backward-merge property ("entries in L2 whose intervals
// intersect with that of I at some point >= i") misses one case admitted by
// the exact §2.3 semantics: an h-entry beginning immediately after a g-run
// ends (u” = I.End+1 needs g only on [i, I.End]). This implementation
// follows the exact semantics; the worked example of Fig. 2 is unaffected.
// The algorithm runs in O(len(lg) + len(lh)), the linear bound of §3.1.
func UntilLists(lg, lh simlist.List, tau float64) simlist.List {
	dst := make([]simlist.Entry, 0, len(lg.Entries)+len(lh.Entries))
	return listOf(lh.MaxSim, appendUntil(dst, lg, lh, tau, 1))
}

// UntilListsPaperRule evaluates until by the paper's literal §3.1 wording:
// within a g-run I, an h-entry J qualifies only when it *intersects* I at a
// point >= i. This misses h-entries beginning immediately after the run ends
// (u” = I.End+1), which the exact §2.3 semantics admits; UntilLists
// implements the exact semantics. Kept for the fidelity comparison and the
// corresponding ablation test/benchmark.
func UntilListsPaperRule(lg, lh simlist.List, tau float64) simlist.List {
	dst := make([]simlist.Entry, 0, len(lg.Entries)+len(lh.Entries))
	return listOf(lh.MaxSim, appendUntil(dst, lg, lh, tau, 0))
}

// appendUntil is one left-to-right pass over both lists. g matters only as
// its runs: maximal stretches of adjacent entries at or above the threshold.
// Outside the runs the result is h itself (u” = i); inside a run I, the value
// at i is the maximum similarity of the h-entries J reachable from i — J.End
// >= i and J.Beg <= I.End+reach (reach is 1 for the exact semantics, 0 for
// the paper's wording) — a suffix maximum over the entries that qualify,
// scanned like `eventually`. At most two h-entries (the one straddling the
// run's end and the one beginning right after it) are looked at again by the
// next step, so the pass is linear. An h-entry is cut only where a g-run
// begins or ends; len(lg)+len(lh) pieces is what to expect, not a bound.
func appendUntil(dst []simlist.Entry, lg, lh simlist.List, tau float64, reach int32) []simlist.Entry {
	start := len(dst)
	g, h := lg.Entries, lh.Entries
	above := func(e simlist.Entry) bool { return lg.MaxSim > 0 && e.Act/lg.MaxSim >= tau }
	// Ids below from are decided; h[hi:] are the h-entries not wholly below it.
	hi, from := 0, int32(math.MinInt32)
	// gap copies the parts of h inside [from, to] and moves from past it.
	gap := func(to int32) {
		for ; hi < len(h) && h[hi].Iv.Beg <= to; hi++ {
			if iv, ok := h[hi].Iv.Intersect(interval.I{Beg: from, End: to}); ok {
				dst = simlist.AppendEntry(dst, simlist.Entry{Iv: iv, Act: h[hi].Act})
			}
			if h[hi].Iv.End > to {
				break // it reaches into the run: the run decides the rest of it
			}
		}
		from = to + 1
	}
	for gi := 0; gi < len(g) && hi < len(h); {
		if !above(g[gi]) {
			gi++
			continue
		}
		I := g[gi].Iv
		for gi++; gi < len(g) && above(g[gi]) && g[gi].Iv.Beg <= I.End+1; gi++ {
			I.End = max(I.End, g[gi].Iv.End)
		}
		gap(I.Beg - 1)
		base, beg := len(dst), I.Beg
		for k := hi; k < len(h) && h[k].Iv.Beg <= I.End+reach; k++ {
			dst, beg = pushSuffixMax(dst, base, beg, min(h[k].Iv.End, I.End), h[k].Act)
		}
		// The run's first piece may continue the piece that ends right before it.
		if base > start && len(dst) > base && dst[base-1].Act == dst[base].Act && dst[base-1].Iv.Adjacent(dst[base].Iv) {
			dst[base-1].Iv.End = dst[base].Iv.End
			dst = append(dst[:base], dst[base+1:]...)
		}
		for hi < len(h) && h[hi].Iv.End <= I.End {
			hi++
		}
		from = I.End + 1
	}
	gap(interval.MaxID)
	return dst
}

// MaxMergeLists merges m similarity lists into one whose value at each id is
// the maximum over the lists — the second part of the type (2) algorithm
// (§3.2), used to existentially project a similarity table onto a list. It
// gathers the entries once and normalizes them where they lie: one pass when
// they come out ascending and disjoint, otherwise simlist's sort-and-sweep
// (O(l log l) for l total entries, matching the paper's O(l log m) up to the
// heap base). The result owns exactly the entries it has — it is what an
// evaluation returns, and results are retained.
func MaxMergeLists(maxSim float64, ls ...simlist.List) simlist.List {
	n := 0
	for _, l := range ls {
		n += len(l.Entries)
	}
	all := make([]simlist.Entry, 0, n)
	for _, l := range ls {
		all = append(all, l.Entries...)
	}
	return maxMergeOwned(maxSim, all)
}

// maxMergeOwned is MaxMergeLists over entries the caller has gathered and
// gives up.
func maxMergeOwned(maxSim float64, all []simlist.Entry) simlist.List {
	merged := simlist.NormalizeInPlace(maxSim, all)
	if len(merged) < cap(merged) {
		merged = owned(merged)
	}
	return simlist.List{MaxSim: maxSim, Entries: merged}
}

// owned returns a copy of entries that holds exactly them, nil for none.
func owned(entries []simlist.Entry) []simlist.Entry {
	if len(entries) == 0 {
		return nil
	}
	return append(make([]simlist.Entry, 0, len(entries)), entries...)
}

// MaxMergePairwise is the naive alternative to MaxMergeLists that merges the
// lists one pair at a time; kept for the ablation benchmark (it is
// O(m * l) instead of O(l log l)).
func MaxMergePairwise(maxSim float64, ls ...simlist.List) simlist.List {
	out := simlist.Empty(maxSim)
	for _, l := range ls {
		out.Entries = appendPointwise(make([]simlist.Entry, 0, len(out.Entries)+len(l.Entries)), out, l, pointwiseMax)
	}
	return out
}
