package core

import (
	"context"
	"slices"
	"sort"

	"htlvideo/internal/faultinject"
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

// rankedLess is the single ordering shared by the sorts and the heap: best
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

// VideoLists yields each video's id with its similarity list, once per
// video, to TopK: iter.Seq2[int, simlist.List] spelled out, since the
// module's go directive predates the iter package. MapLists yields a map's;
// the server yields its fan-out's results in video order.
type VideoLists = func(yield func(int, simlist.List) bool)

// MapLists yields the lists of a map from video id, in map order.
func MapLists(lists map[int]simlist.List) VideoLists {
	return func(yield func(int, simlist.List) bool) {
		for vid, l := range lists {
			if !yield(vid, l) {
				return
			}
		}
	}
}

// TopK returns the k highest-similarity video segments across per-video
// similarity lists (§1: "the top k video segments that have the highest
// similarity values ... will be retrieved"), ordered by RankedLess. Runs of
// equal-similarity segments stay as one Ranked entry; the last run is
// truncated so that the total number of segments returned is exactly
// min(k, covered). k = math.MaxInt ranks every entry.
//
// It is CopyTopK's selection one level up: a heap with the worst run at the
// root holds the fewest best runs seen so far that cover k segments, and an
// entry that cannot place is rejected by comparing its similarity with the
// root's before a Ranked is built for it. skipped counts those rejections.
// The kept runs are the same whatever order the videos are visited in, so
// the ranking is deterministic; skipped depends on the order. The lists are
// not modified. The context is checked, and faultinject.SiteTopKScan fired,
// once per video.
func TopK(ctx context.Context, lists VideoLists, k int) (top []Ranked, skipped int64, err error) {
	if k <= 0 {
		return nil, 0, nil
	}
	// What the visit of each video shares with this frame. The visit escapes
	// into lists, so this is one allocation rather than one per variable.
	var sel struct {
		h       keptRuns
		covered int
		skipped int64
		err     error
	}
	lists(func(vid int, l simlist.List) bool {
		if sel.err = faultinject.Fire(ctx, faultinject.SiteTopKScan, int64(vid)); sel.err != nil {
			return false
		}
		if sel.err = ctx.Err(); sel.err != nil {
			return false
		}
		for _, e := range l.Entries {
			if sel.covered >= k && (e.Act < sel.h[0].Sim.Act || e.Act == sel.h[0].Sim.Act && rankedLess(sel.h[0], lift(vid, l.MaxSim, e))) {
				sel.skipped++
				continue
			}
			if sel.h == nil {
				// At most k+1 runs are ever kept; a larger k grows the heap
				// as it needs.
				sel.h = make(keptRuns, 0, min(k, topKInitialRuns)+1)
			}
			r := lift(vid, l.MaxSim, e)
			sel.h.push(r)
			sel.covered += r.Iv.Len()
			// The worst run goes while the others still cover k.
			for sel.covered-sel.h[0].Iv.Len() >= k {
				sel.covered -= sel.h[0].Iv.Len()
				sel.h.pop()
			}
		}
		return true
	})
	h, covered := sel.h, sel.covered
	if sel.err != nil {
		return nil, 0, sel.err
	}
	if len(h) == 0 {
		return nil, sel.skipped, nil
	}
	slices.SortFunc(h, func(a, b Ranked) int {
		if rankedLess(a, b) {
			return -1
		}
		if rankedLess(b, a) {
			return 1
		}
		return 0
	})
	if last := &h[len(h)-1]; covered > k {
		last.Iv.End -= covered - k
	}
	return h, sel.skipped, nil
}

// topKInitialRuns caps the heap TopK first makes: a ranking of every entry
// (k = math.MaxInt) starts there and grows.
const topKInitialRuns = 15

// TopKBySort is the naive alternative that fully sorts all entries: the
// oracle TopK is held to.
func TopKBySort(lists map[int]simlist.List, k int) []Ranked {
	if k <= 0 {
		return nil
	}
	var all []Ranked
	for vid, l := range lists {
		for _, e := range l.Entries {
			all = append(all, lift(vid, l.MaxSim, e))
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

// CopyTopK copies out of an evaluation's arena a the best runs of entries, a
// normalized list of one video, that cover k segments: the runs the global
// ranking can take from this video. They are chosen in RankedLess's order
// restricted to one video (descending similarity, then ascending beginning
// segment), the last is truncated to the segments still needed as TopKBySort
// truncates, and they come out in beginning order, so the result is a list
// again. k <= 0 copies every entry. The copy is exactly sized, nil for none,
// and holds no byte of a.
//
// The choice is exact for any global top k' <= k: a video's runs rank among
// themselves as they rank globally, so the global ranking takes from each
// video a prefix of that video's ranked runs covering at most k segments —
// a prefix of what is kept here.
//
// The candidates wait in a heap of entry indices carved from a, worst at the
// root, which holds the fewest best runs seen so far that cover k segments:
// O(n log k) for n entries, and a run that cannot place is rejected by one
// compare against the root.
func CopyTopK(a *Arena, entries []simlist.Entry, k int) []simlist.Entry {
	if k <= 0 || len(entries) == 0 {
		return owned(entries)
	}
	width := func(i int32) int { return entries[i].Iv.Wide().Len() }
	h := runHeap{entries: entries, idx: a.Int32s(min(k, len(entries)-1) + 1)[:0]}
	covered := 0
	for i := range int32(len(entries)) {
		if covered >= k && !h.better(i, h.idx[0]) {
			continue
		}
		h.push(i)
		covered += width(i)
		// The worst run goes while the others still cover k.
		for covered-width(h.idx[0]) >= k {
			covered -= width(h.idx[0])
			h.pop()
		}
	}
	// The root is the last run the ranking takes; it keeps what is needed.
	last := h.idx[0]
	need := width(last) - (covered - k)
	slices.Sort(h.idx)
	out := make([]simlist.Entry, len(h.idx))
	for j, i := range h.idx {
		out[j] = entries[i]
		if i == last && covered > k {
			out[j].Iv.End = out[j].Iv.Beg + int32(need) - 1
		}
	}
	return out
}

// runHeap is a binary heap of indices into one video's entries with the
// worst-ranked run at the root.
type runHeap struct {
	entries []simlist.Entry
	idx     []int32
}

// better reports whether entry i ranks before entry j: higher similarity,
// then the earlier run, which is the lower index of a normalized list.
func (h *runHeap) better(i, j int32) bool {
	if a, b := h.entries[i].Act, h.entries[j].Act; a != b {
		return a > b
	}
	return i < j
}

func (h *runHeap) push(i int32) {
	h.idx = append(h.idx, i)
	for c := len(h.idx) - 1; c > 0; {
		p := (c - 1) / 2
		if !h.better(h.idx[p], h.idx[c]) {
			break
		}
		h.idx[p], h.idx[c] = h.idx[c], h.idx[p]
		c = p
	}
}

func (h *runHeap) pop() {
	n := len(h.idx) - 1
	h.idx[0] = h.idx[n]
	h.idx = h.idx[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && h.better(h.idx[worst], h.idx[l]) {
			worst = l
		}
		if r < n && h.better(h.idx[worst], h.idx[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.idx[i], h.idx[worst] = h.idx[worst], h.idx[i]
		i = worst
	}
}

// lift is entry e of video vid, whose list's bound is max, as a ranked run.
func lift(vid int, max float64, e simlist.Entry) Ranked {
	return Ranked{VideoID: vid, Iv: e.Iv.Wide(), Sim: simlist.Sim{Act: e.Act, Max: max}}
}

// keptRuns is a binary heap of runs with the worst-ranked at the root.
type keptRuns []Ranked

func (h *keptRuns) push(r Ranked) {
	s := append(*h, r)
	for c := len(s) - 1; c > 0; {
		p := (c - 1) / 2
		if !rankedLess(s[p], s[c]) {
			break
		}
		s[p], s[c] = s[c], s[p]
		c = p
	}
	*h = s
}

func (h *keptRuns) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && rankedLess(s[worst], s[l]) {
			worst = l
		}
		if r < n && rankedLess(s[worst], s[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		s[i], s[worst] = s[worst], s[i]
		i = worst
	}
}
