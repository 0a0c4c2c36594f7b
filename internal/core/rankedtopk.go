package core

import (
	"context"

	"htlvideo/internal/faultinject"
	"htlvideo/internal/simlist"
)

// Threshold-style top-k (the Fagin/threshold-algorithm bound argument
// specialized to per-video similarity lists): each list is read through a
// sorted-access iterator whose head is an upper bound on every entry it has
// not yielded, so a k-way merge over the heads can stop as soon as k
// segments are emitted — every unseen entry is provably bounded by some
// head still in the merge heap and therefore cannot displace an emitted
// run. The emission order equals TopKBySort's (the oracle the property
// tests compare against byte for byte), but lists that never reach the top
// of the merge pay one bounding scan instead of being materialized into a
// global sort or heap.

// PruneStats reports the work a threshold top-k scan avoided.
type PruneStats struct {
	// EarlyTerminated reports that the scan stopped with entries still
	// unexamined — the threshold test proved none of them could enter the
	// top k.
	EarlyTerminated bool
	// EntriesSkipped counts the entries never pushed through the ranking.
	EntriesSkipped int64
}

// topkCursor is one video's position in the k-way merge: its iterator plus
// the head entry, pre-lifted into the global ranked form.
type topkCursor struct {
	vid  int
	max  float64
	head Ranked
	it   *simlist.RankIter
}

// RankedTopK returns the k highest-similarity segment runs across per-video
// similarity lists, byte-identical to TopKBySort, terminating as soon as the
// threshold test allows. st, when non-nil, accumulates pruning statistics.
func RankedTopK(lists map[int]simlist.List, k int, st *PruneStats) []Ranked {
	out, _ := RankedTopKCtx(context.Background(), lists, k, st)
	return out
}

// RankedTopKCtx is RankedTopK with cooperative cancellation: the bounding
// scan checks the context once per video, so a deadline stops a scan over a
// large corpus between lists rather than only at the end.
func RankedTopKCtx(ctx context.Context, lists map[int]simlist.List, k int, st *PruneStats) ([]Ranked, error) {
	if k <= 0 {
		return nil, nil
	}
	var total, consumed int64
	cs := make([]topkCursor, 0, len(lists))
	for vid, l := range lists {
		if err := faultinject.Fire(ctx, faultinject.SiteTopKScan, int64(vid)); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		total += int64(len(l.Entries))
		it := simlist.NewRankIter(l)
		e, ok := it.Pop()
		if !ok {
			continue
		}
		consumed++
		cs = append(cs, topkCursor{
			vid:  vid,
			max:  l.MaxSim,
			head: Ranked{VideoID: vid, Iv: e.Iv.Wide(), Sim: simlist.Sim{Act: e.Act, Max: l.MaxSim}},
			it:   it,
		})
	}
	h := cursorHeap(cs)
	h.init()
	var out []Ranked
	remaining := k
	for remaining > 0 && len(h) > 0 {
		c := &h[0]
		if err := faultinject.Fire(ctx, faultinject.SiteTopKScan, int64(c.vid)); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := c.head
		if r.Iv.Len() > remaining {
			r.Iv.End = r.Iv.Beg + remaining - 1
		}
		remaining -= r.Iv.Len()
		out = append(out, r)
		if e, ok := c.it.Pop(); ok {
			consumed++
			c.head = Ranked{VideoID: c.vid, Iv: e.Iv.Wide(), Sim: simlist.Sim{Act: e.Act, Max: c.max}}
			h.siftDown(0)
		} else {
			h.removeRoot()
		}
	}
	if st != nil {
		if skipped := total - consumed; skipped > 0 {
			st.EarlyTerminated = true
			st.EntriesSkipped += skipped
		}
	}
	return out, nil
}

// cursorHeap is a binary min-heap of per-video cursors under the global
// retrieval order of their heads (best head at the root). Within one video
// the iterator yields in the same order restricted to that video, so the
// merge emits the exact global ranked order.
type cursorHeap []topkCursor

func (h cursorHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *cursorHeap) removeRoot() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	s.siftDown(0)
}

func (h cursorHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && rankedLess(h[l].head, h[best].head) {
			best = l
		}
		if r < n && rankedLess(h[r].head, h[best].head) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
