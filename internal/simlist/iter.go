package simlist

// Sorted access for threshold-style top-k retrieval: a RankIter yields one
// list's entries in ranked order — descending actual similarity, ties by
// ascending beginning id — without mutating the list, which is shared
// (memoized per plan node, cached per query result) and must stay immutable.
//
// The iterator is deliberately lazy. Construction scans the entries once for
// the best one and allocates nothing; the heap over the remaining entries is
// built only when the consumer advances past that head. A top-k scan over
// many videos therefore pays O(n) compares per list it merely *bounds* and
// the full O(n) copy + heapify only for the handful of lists that actually
// contribute results.

// RankIter iterates a similarity list's entries in ranked order.
type RankIter struct {
	src []Entry
	// head indexes the best entry of src (-1 when src is empty); it is the
	// first entry yielded, found by a plain scan with no allocation.
	head int
	// consumed counts entries already yielded; built marks the heap as
	// constructed (it stays nil for iterators never advanced past the head).
	consumed int
	built    bool
	heap     []Entry
}

// NewRankIter builds an iterator over l. Cost: one O(n) scan, no allocation
// beyond the iterator itself.
func NewRankIter(l List) *RankIter {
	it := &RankIter{src: l.Entries, head: -1}
	for i := range l.Entries {
		// Entries are sorted by beginning id, so on equal Act the first
		// maximum seen is the ranked-order winner.
		if it.head < 0 || l.Entries[i].Act > l.Entries[it.head].Act {
			it.head = i
		}
	}
	return it
}

// Pop yields the best entry not yet yielded.
func (it *RankIter) Pop() (Entry, bool) {
	if it.consumed == 0 {
		if it.head < 0 {
			return Entry{}, false
		}
		it.consumed++
		return it.src[it.head], true
	}
	it.ensureHeap()
	if len(it.heap) == 0 {
		return Entry{}, false
	}
	top := it.heap[0]
	n := len(it.heap) - 1
	it.heap[0] = it.heap[n]
	it.heap = it.heap[:n]
	entrySiftDown(it.heap, 0)
	it.consumed++
	return top, true
}

// ensureHeap copies the entries other than the head into a binary heap; it
// runs at most once, the first time the consumer advances past the head.
func (it *RankIter) ensureHeap() {
	if it.built {
		return
	}
	it.built = true
	if len(it.src) <= 1 {
		return
	}
	it.heap = make([]Entry, 0, len(it.src)-1)
	for i := range it.src {
		if i != it.head {
			it.heap = append(it.heap, it.src[i])
		}
	}
	for i := len(it.heap)/2 - 1; i >= 0; i-- {
		entrySiftDown(it.heap, i)
	}
}

// entryBefore is the per-list ranked order: descending actual similarity,
// ties by ascending beginning id — the restriction of the global retrieval
// order to one video's entries.
func entryBefore(a, b Entry) bool {
	if a.Act != b.Act {
		return a.Act > b.Act
	}
	return a.Iv.Beg < b.Iv.Beg
}

func entrySiftDown(h []Entry, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && entryBefore(h[l], h[best]) {
			best = l
		}
		if r < n && entryBefore(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
