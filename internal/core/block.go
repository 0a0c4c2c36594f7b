package core

// block is the storage of the short slices one table's rows retain — their
// lists' entries, their bindings, their ranges. One block per table under
// construction and per element type: what an operator knows of its output's
// size (the entries it reads, the rows it joins) is the first reservation, a
// table that outgrows it continues in a chunk half as large as everything
// reserved before — a join's output is rarely far from the estimate, and a
// doubling would mostly be wasted — and there is no minimum: a child
// sequence of ten shots evaluates a whole plan. Slices are cut with their
// capacity clipped, so a later append on one cannot reach its neighbour.
// Chunks are never reused: the table that was built owns them, and they die
// with the evaluation that memoizes it.
type block[T any] struct {
	free     []T // empty; its capacity is what is left of the current chunk
	reserved int // the sizes of all chunks so far
}

// reserve makes room for n more elements.
func (b *block[T]) reserve(n int) {
	if cap(b.free) < n {
		n = max(n, b.reserved/2)
		b.free = make([]T, 0, n)
		b.reserved += n
	}
}

// open returns the empty slice the next list is appended to, with room for
// the n elements it is expected to need; keep closes the list. n is a hint: a
// list that grows past it has been moved to a slice of its own by append,
// which keep hands back untouched while the block's room stays for the next.
func (b *block[T]) open(n int) []T {
	b.reserve(n)
	return b.free
}

func (b *block[T]) keep(l []T) []T {
	if len(l) == 0 {
		return nil
	}
	if len(l) <= cap(b.free) && &l[0] == &b.free[:1][0] {
		b.free = b.free[len(l):len(l):cap(b.free)]
	}
	return l[:len(l):len(l)]
}
