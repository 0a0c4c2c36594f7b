package simlist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"htlvideo/internal/interval"
)

func iterEntry(beg, end int32, act float64) Entry {
	return Entry{Iv: interval.I{Beg: beg, End: end}, Act: act}
}

// drain pops the iterator to exhaustion.
func drain(it *RankIter) []Entry {
	var out []Entry
	for {
		e, ok := it.Pop()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func TestRankIterOrder(t *testing.T) {
	l := NewList(10,
		iterEntry(1, 2, 4),
		iterEntry(4, 4, 9),
		iterEntry(6, 7, 4),
		iterEntry(9, 9, 1),
	)
	got := drain(NewRankIter(l))
	// Ranked order: Act desc, ties by Beg asc.
	want := []Entry{l.Entries[1], l.Entries[0], l.Entries[2], l.Entries[3]}
	if len(got) != len(want) {
		t.Fatalf("drained %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Property: the iterator yields exactly the sorted-by-entryBefore permutation
// of the list, for random lists with quantized similarities (so ties occur).
func TestRankIterMatchesSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var entries []Entry
		pos := 1
		for pos < 60 {
			pos += rng.Intn(3) + 1
			ln := rng.Intn(4)
			if pos+ln > 60 {
				break
			}
			entries = append(entries, iterEntry(int32(pos), int32(pos+ln), float64(1+rng.Intn(5))))
			pos += ln + 2
		}
		l := NewList(5, entries...)
		want := append([]Entry(nil), entries...)
		sort.SliceStable(want, func(i, j int) bool { return entryBefore(want[i], want[j]) })
		got := drain(NewRankIter(l))
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The iterator must stay lazy (no heap until the consumer advances past the
// head) and must never mutate the list it reads — lists are shared between
// memo tables and cached results.
func TestRankIterLazyAndNonMutating(t *testing.T) {
	l := NewList(10, iterEntry(1, 1, 3), iterEntry(3, 3, 7), iterEntry(5, 5, 5))
	orig := append([]Entry(nil), l.Entries...)
	it := NewRankIter(l)
	if it.heap != nil || it.built {
		t.Fatal("heap built at construction")
	}
	if ub := it.UpperBound(); ub != 7 {
		t.Fatalf("UpperBound = %g, want 7", ub)
	}
	if e, ok := it.Pop(); !ok || e.Act != 7 {
		t.Fatalf("head pop = %+v, %v", e, ok)
	}
	if it.built {
		t.Fatal("heap built by the head pop")
	}
	if e, ok := it.Pop(); !ok || e.Act != 5 {
		t.Fatalf("second pop = %+v, %v", e, ok)
	}
	if !it.built {
		t.Fatal("heap not built after advancing past the head")
	}
	if it.Remaining() != 1 {
		t.Fatalf("Remaining = %d, want 1", it.Remaining())
	}
	for i, e := range l.Entries {
		if e != orig[i] {
			t.Fatalf("iterator mutated the list: entry %d = %+v, was %+v", i, e, orig[i])
		}
	}
}

func TestRankIterEmpty(t *testing.T) {
	it := NewRankIter(Empty(5))
	if _, ok := it.Peek(); ok {
		t.Fatal("peek on empty list")
	}
	if _, ok := it.Pop(); ok {
		t.Fatal("pop on empty list")
	}
	if ub := it.UpperBound(); ub != 0 {
		t.Fatalf("UpperBound = %g, want 0", ub)
	}
}

func TestMaxAct(t *testing.T) {
	if got := Empty(5).MaxAct(); got != 0 {
		t.Fatalf("empty MaxAct = %g", got)
	}
	l := NewList(10, iterEntry(1, 1, 3), iterEntry(3, 3, 7))
	if got := l.MaxAct(); got != 7 {
		t.Fatalf("MaxAct = %g, want 7", got)
	}
}
