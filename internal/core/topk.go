package core

import (
	"sort"

	"htlvideo/internal/interval"
	"htlvideo/internal/simlist"
)

// Ranked is one run of video segments in a ranked retrieval result. The run
// leaves the kernel here, so its interval is in int coordinates.
type Ranked struct {
	VideoID int
	Iv      interval.Wide
	Sim     simlist.Sim
}

// RankedLess reports whether a orders before b under the retrieval ordering
// — descending actual similarity with fully deterministic tie-breaks: equal
// similarities order by video id, then by beginning segment, so ranked
// output is stable run to run regardless of the (concurrent,
// nondeterministic) order results were produced in. The scatter-gather
// coordinator merges per-shard ranked streams with this same function, which
// is what makes a merged ranking identical to a single-store run.
func RankedLess(a, b Ranked) bool { return rankedLess(a, b) }

// rankedLess is the single ordering shared by the sort and the heap: best
// first, deterministic tie-breaks.
func rankedLess(a, b Ranked) bool {
	if a.Sim.Act != b.Sim.Act {
		return a.Sim.Act > b.Sim.Act
	}
	if a.VideoID != b.VideoID {
		return a.VideoID < b.VideoID
	}
	return a.Iv.Beg < b.Iv.Beg
}

// TopK returns the k highest-similarity video segments across per-video
// similarity lists (§1: "the top k video segments that have the highest
// similarity values ... will be retrieved"). Runs of equal-similarity
// segments stay as one Ranked entry; the last run is truncated so that the
// total number of segments returned is exactly min(k, covered). A heap keeps
// the cost at O(n + r log n) for n entries and r emitted runs.
func TopK(lists map[int]simlist.List, k int) []Ranked {
	if k <= 0 {
		return nil
	}
	n := 0
	for _, l := range lists {
		n += len(l.Entries)
	}
	h := make(rankedHeap, 0, n)
	for vid, l := range lists {
		for _, e := range l.Entries {
			h = append(h, Ranked{VideoID: vid, Iv: e.Iv.Wide(), Sim: simlist.Sim{Act: e.Act, Max: l.MaxSim}})
		}
	}
	h.init()
	var out []Ranked
	remaining := k
	for remaining > 0 && len(h) > 0 {
		r := h.pop()
		if r.Iv.Len() > remaining {
			r.Iv.End = r.Iv.Beg + remaining - 1
		}
		remaining -= r.Iv.Len()
		out = append(out, r)
	}
	return out
}

// TopKBySort is the naive alternative that fully sorts all entries; kept for
// the ablation benchmark.
func TopKBySort(lists map[int]simlist.List, k int) []Ranked {
	if k <= 0 {
		return nil
	}
	var all []Ranked
	for vid, l := range lists {
		for _, e := range l.Entries {
			all = append(all, Ranked{VideoID: vid, Iv: e.Iv.Wide(), Sim: simlist.Sim{Act: e.Act, Max: l.MaxSim}})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return rankedLess(all[i], all[j]) })
	var out []Ranked
	remaining := k
	for _, r := range all {
		if remaining <= 0 {
			break
		}
		if r.Iv.Len() > remaining {
			r.Iv.End = r.Iv.Beg + remaining - 1
		}
		remaining -= r.Iv.Len()
		out = append(out, r)
	}
	return out
}

// rankedHeap is a typed binary min-heap under rankedLess (so the best run is
// at the root). It is hand-rolled rather than built on container/heap: the
// interface-based heap boxes every Ranked through `any` on Push/Pop, which
// costs an allocation per element on the retrieval hot path.
type rankedHeap []Ranked

// init establishes the heap invariant in O(n).
func (h rankedHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// pop removes and returns the best element.
func (h *rankedHeap) pop() Ranked {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	s.siftDown(0)
	return top
}

func (h rankedHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && rankedLess(h[l], h[best]) {
			best = l
		}
		if r < n && rankedLess(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
